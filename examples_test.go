package bba_test

import (
	"errors"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"bba"
	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/player"
	"bba/internal/sharedlink"
	"bba/internal/stats"
	"bba/internal/trace"
	"bba/internal/units"
)

// Quickstart: simulate one BBA-2 streaming session over a variable
// network and print the paper's quality metrics.
func Example_quickstart() {
	// A two-hour VBR title on the 235 kb/s – 5 Mb/s ladder.
	video, err := bba.NewVBRTitle("quickstart", 1800, 1)
	if err != nil {
		log.Fatal(err)
	}

	// A network as variable as the paper's Figure 1 session: the 75th to
	// 25th percentile throughput ratio is 5.6.
	network := bba.VariableTrace(4*bba.Mbps, 5.6, time.Hour, 2)

	// Stream 20 minutes with the paper's headline algorithm.
	result, err := bba.RunSession(bba.SessionConfig{
		Algorithm:  bba.NewBBA2(),
		Video:      video,
		Trace:      network,
		WatchLimit: 20 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algorithm         %s\n", result.Algorithm)
	fmt.Printf("played            %v\n", result.Played.Round(time.Second))
	fmt.Printf("rebuffers         %d (%.2f per playhour)\n", result.Rebuffers, result.RebuffersPerPlayhour())
	fmt.Printf("average rate      %.0f kb/s\n", result.AvgRateKbps())
	fmt.Printf("steady-state rate %.0f kb/s\n", result.SteadyAvgRateKbps())
	fmt.Printf("switches/hour     %.1f\n", result.SwitchesPerPlayhour())

	// The same session with the capacity-estimating Control for contrast
	// (the trace and title are identical — a perfectly paired A/B).
	control, err := bba.RunSession(bba.SessionConfig{
		Algorithm:  bba.NewControl(),
		Video:      video,
		Trace:      network,
		WatchLimit: 20 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nversus Control:   %d rebuffers, %.0f kb/s average\n",
		control.Rebuffers, control.AvgRateKbps())
	// Output:
	// algorithm         BBA-2
	// played            20m0s
	// rebuffers         0 (0.00 per playhour)
	// average rate      4628 kb/s
	// steady-state rate 5000 kb/s
	// switches/hour     45.0
	//
	// versus Control:   0 rebuffers, 4347 kb/s average
}

// Startup ramp (Figure 16): BBA-1 follows the chunk map and climbs only as
// the buffer grows; BBA-2's ΔB rule steps the rate up as soon as chunk
// downloads prove the capacity. This example prints both ramps side by
// side on the same fast link.
func Example_startup() {
	// The network sustains far more than the title's top rate: the
	// steady-state rate is R_max and the only question is how fast each
	// algorithm gets there.
	ladder := media.DefaultLadder()[:8] // cap the title at 3 Mb/s
	video, err := media.NewCBR("startup-demo", ladder, media.DefaultChunkDuration, 450)
	if err != nil {
		log.Fatal(err)
	}
	link := trace.Constant(25*units.Mbps, time.Hour)

	ramp := func(alg bba.Algorithm) (*player.Result, []bba.Event) {
		return runLogged(player.Config{
			Algorithm:  alg,
			Stream:     abr.NewStream(video, 0),
			Trace:      link,
			WatchLimit: 5 * time.Minute,
		})
	}
	bba1, log1 := ramp(bba.NewBBA1())
	bba2, log2 := ramp(bba.NewBBA2())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "chunk\tBBA-1 rate\tBBA-1 buffer\tBBA-2 rate\tBBA-2 buffer")
	for k := 0; k < 30 && k < len(log1) && k < len(log2); k++ {
		c1, c2 := log1[k], log2[k]
		fmt.Fprintf(w, "%d\t%v\t%.0fs\t%v\t%.0fs\n",
			k, c1.Rate, c1.Buffer.Seconds(), c2.Rate, c2.Buffer.Seconds())
	}
	w.Flush()

	fmt.Printf("\nfirst-minute average rate: BBA-1 %.0f kb/s, BBA-2 %.0f kb/s\n",
		bba1.StartupAvgRateKbps(), bba2.StartupAvgRateKbps())
	fmt.Println("BBA-2 steps up one rung per chunk while downloads run ≥8× faster than")
	fmt.Println("real time; BBA-1 waits for the buffer to climb the whole cushion")
	// Output:
	// chunk  BBA-1 rate  BBA-1 buffer  BBA-2 rate  BBA-2 buffer
	// 0      235kb/s     4s            235kb/s     4s
	// 1      235kb/s     8s            375kb/s     8s
	// 2      235kb/s     12s           560kb/s     12s
	// 3      235kb/s     16s           750kb/s     16s
	// 4      235kb/s     20s           1.05Mb/s    20s
	// 5      235kb/s     24s           1.75Mb/s    23s
	// 6      375kb/s     28s           2.35Mb/s    27s
	// 7      375kb/s     32s           3Mb/s       30s
	// 8      375kb/s     36s           3Mb/s       34s
	// 9      560kb/s     40s           3Mb/s       37s
	// 10     560kb/s     43s           3Mb/s       41s
	// 11     560kb/s     47s           3Mb/s       45s
	// 12     560kb/s     51s           3Mb/s       48s
	// 13     750kb/s     55s           3Mb/s       52s
	// 14     750kb/s     59s           3Mb/s       55s
	// 15     750kb/s     63s           3Mb/s       59s
	// 16     750kb/s     67s           3Mb/s       62s
	// 17     750kb/s     71s           3Mb/s       66s
	// 18     750kb/s     75s           3Mb/s       69s
	// 19     750kb/s     78s           3Mb/s       73s
	// 20     1.05Mb/s    82s           3Mb/s       76s
	// 21     1.05Mb/s    86s           3Mb/s       80s
	// 22     1.05Mb/s    90s           3Mb/s       83s
	// 23     1.05Mb/s    94s           3Mb/s       87s
	// 24     1.05Mb/s    98s           3Mb/s       90s
	// 25     1.05Mb/s    101s          3Mb/s       94s
	// 26     1.05Mb/s    105s          3Mb/s       97s
	// 27     1.05Mb/s    109s          3Mb/s       101s
	// 28     1.05Mb/s    113s          3Mb/s       104s
	// 29     1.05Mb/s    117s          3Mb/s       108s
	//
	// first-minute average rate: BBA-1 1674 kb/s, BBA-2 2812 kb/s
	// BBA-2 steps up one rung per chunk while downloads run ≥8× faster than
	// real time; BBA-1 waits for the buffer to climb the whole cushion
}

// A/B experiment: run a reduced version of the paper's weekend deployment —
// six algorithm groups over a paired synthetic population — and print the
// peak-hour comparison behind Figures 7, 17 and 24.
func ExampleExperiment() {
	// One simulated day, 30 paired sessions per two-hour window per
	// group: a couple of seconds of compute.
	outcome, err := bba.Experiment(42, 1, 30)
	if err != nil {
		log.Fatal(err)
	}

	peak := func(ws []metrics.Window, f func(metrics.Window) float64) float64 {
		var sum, hours float64
		for _, w := range ws {
			if !metrics.Peak.Covers(w.Index) {
				continue
			}
			sum += f(w) * w.PlayHours
			hours += w.PlayHours
		}
		if hours == 0 {
			return 0
		}
		return sum / hours
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "group\trebuf/h (peak)\tavg rate kb/s\tsteady kb/s\tswitches/h")
	for _, g := range []string{"Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others"} {
		ws := outcome.Windows[g]
		fmt.Fprintf(w, "%s\t%.3f\t%.0f\t%.0f\t%.1f\n", g,
			peak(ws, func(x metrics.Window) float64 { return x.RebuffersPerPlayhour }),
			peak(ws, func(x metrics.Window) float64 { return x.AvgRateKbps }),
			peak(ws, func(x metrics.Window) float64 { return x.SteadyRateKbps }),
			peak(ws, func(x metrics.Window) float64 { return x.SwitchesPerPlayhour }),
		)
	}
	w.Flush()

	// The paper's footnote-style significance check: off-peak, is BBA-1
	// distinguishable from the Rmin Always lower bound? The paired test on
	// the two arms' pooled rebuffer rates reads the outcome's draw-by-draw
	// comparison.
	res, err := outcome.SignificanceRebuffers("BBA-1", "Rmin Always", metrics.OffPeak)
	switch {
	case errors.Is(err, stats.ErrUndecided):
		// An arm that never rebuffered off-peak has no pooled ratio to test.
		fmt.Printf("\nBBA-1 vs Rmin Always off-peak: undecided: n = %d draws\n", res.N)
		return
	case err != nil:
		log.Fatal(err)
	}
	fmt.Printf("\nBBA-1 vs Rmin Always off-peak: p = %.2f ", res.P)
	if res.P >= 0.05 {
		fmt.Println("(equal pooled rebuffer rate not rejected — as in the paper)")
	} else {
		fmt.Println("(distinguishable at 95%)")
	}
	// Output:
	// group        rebuf/h (peak)  avg rate kb/s  steady kb/s  switches/h
	// Control      0.298           2835           2977         142.5
	// Rmin Always  0.066           471            471          0.0
	// BBA-0        0.066           2686           3076         58.0
	// BBA-1        0.099           2871           3200         180.7
	// BBA-2        0.099           2904           3180         186.4
	// BBA-Others   0.099           2824           3091         133.6
	//
	// BBA-1 vs Rmin Always off-peak: undecided: n = 90 draws
}

// Outage protection (Section 7.1), rebuilt on the fault-injection
// subsystem: one seeded fault schedule — a total link blackout, a 5xx
// burst and a latency spike — is applied to the capacity trace AND to the
// request path, then BBA-2 (per-chunk outage-protection accrual) and
// BBA-Others (right-shift-only reservoir) are compared against plain
// map-following through the identical weather.
func Example_outage() {
	video, err := bba.NewVBRTitle("outage-demo", 900, 3)
	if err != nil {
		log.Fatal(err)
	}

	// One declarative schedule drives everything. The paper's motivating
	// outages are 20–30 s; the blackout is stretched to 145 s so the
	// difference in accumulated protection is visible — it outlasts the
	// unprotected buffer but not the protected one. The 5xx burst and the
	// latency spike exercise the retry path on top.
	sched := faults.MustSchedule([]faults.Fault{
		{Kind: faults.ServerError, Start: 3 * time.Minute, Duration: 20 * time.Second},
		{Kind: faults.LatencySpike, Start: 5 * time.Minute, Duration: 30 * time.Second, Latency: 800 * time.Millisecond},
		{Kind: faults.Blackout, Start: 8 * time.Minute, Duration: 145 * time.Second},
	})

	// Capacity faults (the blackout) reshape the trace; request-path
	// faults (the burst, the spike) are injected per attempt.
	base := trace.Constant(2500*units.Kbps, time.Hour)
	link, err := sched.ApplyToTrace(base)
	if err != nil {
		log.Fatal(err)
	}
	inj := faults.NewSessionInjector(sched, 7)

	// A variant of BBA-1 with the protection accrual disabled isolates
	// what the Section 7 mechanisms buy.
	runs := []struct {
		name string
		alg  bba.Algorithm
	}{
		{"BBA-1 (no protection)", func() bba.Algorithm {
			a := abr.NewBBA1()
			a.ProtectionPerChunk = 0
			return a
		}()},
		{"BBA-1", bba.NewBBA1()},
		{"BBA-2", bba.NewBBA2()},
		{"BBA-Others", bba.NewBBAOthers()},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\trebuffers\tfrozen\tavg rate\tfaults\tretries\tbuffer@outage")
	for _, r := range runs {
		res, chunks := runLogged(player.Config{
			Algorithm:  r.alg,
			Stream:     abr.NewStream(video, 0),
			Trace:      link,
			WatchLimit: 15 * time.Minute,
			Injector:   inj,
		})
		fmt.Fprintf(w, "%s\t%d\t%.1fs\t%.0f kb/s\t%d\t%d\t%.0fs\n",
			r.name, res.Rebuffers, res.StallTime.Seconds(), res.AvgRateKbps(),
			res.Faults, res.Retries, bufferAtOutage(chunks, 8*time.Minute))
	}
	w.Flush()
	fmt.Println("\nthe Section 7 mechanisms converge the buffer higher, so an outage that")
	fmt.Println("freezes the unprotected player drains protection instead; the injected")
	fmt.Println("5xx burst and latency spike cost every player a few deterministic retries")
	// Output:
	// algorithm              rebuffers  frozen  avg rate   faults  retries  buffer@outage
	// BBA-1 (no protection)  1          15.5s   1807 kb/s  6       6        134s
	// BBA-1                  0          0.0s    1613 kb/s  8       8        155s
	// BBA-2                  1          1.7s    1668 kb/s  10      10       147s
	// BBA-Others             0          0.0s    1519 kb/s  8       8        161s
	//
	// the Section 7 mechanisms converge the buffer higher, so an outage that
	// freezes the unprotected player drains protection instead; the injected
	// 5xx burst and latency spike cost every player a few deterministic retries
}

// runLogged runs one session and returns its result with its
// chunk_complete events, the per-chunk log.
func runLogged(cfg player.Config) (*player.Result, []bba.Event) {
	var chunks []bba.Event
	cfg.Observer = bba.ObserverFunc(func(e bba.Event) {
		if e.Kind == bba.EventChunkComplete {
			chunks = append(chunks, e)
		}
	})
	res, err := player.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res, chunks
}

// bufferAtOutage reports the buffer level after the last chunk that
// completed before the outage hit.
func bufferAtOutage(chunks []bba.Event, at time.Duration) float64 {
	var level time.Duration
	for _, c := range chunks {
		if c.At > at {
			break
		}
		level = c.Buffer
	}
	return level.Seconds()
}

// Shared bottleneck (Section 8): three BBA-2 players and one long-lived
// bulk download compete for a single 9 Mb/s link. With full buffers the
// players fall into the ON-OFF pattern, everyone converges to a fair
// share, and nobody spirals downward.
func Example_sharedlink() {
	video, err := media.NewCBR("sharedlink-demo", media.DefaultLadder(), media.DefaultChunkDuration, 900)
	if err != nil {
		log.Fatal(err)
	}

	mkPlayer := func(startAt time.Duration) sharedlink.PlayerConfig {
		return sharedlink.PlayerConfig{
			Algorithm:  abr.NewBBA2(),
			Stream:     abr.NewStream(video, 0),
			WatchLimit: 12 * time.Minute,
			StartAt:    startAt,
		}
	}

	res, err := sharedlink.Run(sharedlink.Config{
		Trace:     trace.Constant(9*units.Mbps, time.Hour),
		BulkFlows: 1,
		Players: []sharedlink.PlayerConfig{
			mkPlayer(0),
			mkPlayer(30 * time.Second),
			mkPlayer(time.Minute),
		},
		Horizon: 30 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "player\tavg rate\tsteady rate\trebuffers\tswitches")
	for i, p := range res.Players {
		fmt.Fprintf(w, "%d\t%.0f kb/s\t%.0f kb/s\t%d\t%d\n",
			i, p.AvgRateKbps(), p.SteadyAvgRateKbps(), p.Rebuffers, p.Switches)
	}
	w.Flush()

	fmt.Printf("\nJain fairness index over delivered rates: %.3f\n", res.FairnessIndex())
	fmt.Printf("bulk flow moved %.0f MB alongside the players\n", float64(res.BulkBytes)/1e6)
	fmt.Println("fair share on a 9 Mb/s link with 4 flows is 2.25 Mb/s; with players")
	fmt.Println("ON-OFF at full buffers the bulk flow soaks up the OFF periods")
	// Output:
	// player  avg rate   steady rate  rebuffers  switches
	// 0       2128 kb/s  2350 kb/s    0          6
	// 1       1995 kb/s  2316 kb/s    0          6
	// 2       1959 kb/s  2297 kb/s    0          6
	//
	// Jain fairness index over delivered rates: 0.999
	// bulk flow moved 1476 MB alongside the players
	// fair share on a 9 Mb/s link with 4 flows is 2.25 Mb/s; with players
	// ON-OFF at full buffers the bulk flow soaks up the OFF periods
}
