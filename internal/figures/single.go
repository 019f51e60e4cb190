package figures

import (
	"fmt"
	"math/rand"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/stats"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// referenceVideo is the shared VBR title used by single-session figures.
func referenceVideo(chunks int) (*media.Video, error) {
	return media.NewVBR(media.VBRConfig{
		Title:     "black-hawk-down",
		Ladder:    media.DefaultLadder(),
		NumChunks: chunks,
	}, rand.New(rand.NewSource(10)))
}

// runLogged runs one session and returns its result with its chunk_complete
// events, the per-chunk log the time-series figures plot. A chunk started
// at At − Duration.
func runLogged(cfg player.Config) (*player.Result, []telemetry.Event, error) {
	var chunks []telemetry.Event
	cfg.Observer = telemetry.Func(func(e telemetry.Event) {
		if e.Kind == telemetry.ChunkComplete {
			chunks = append(chunks, e)
		}
	})
	res, err := player.Run(cfg)
	return res, chunks, err
}

// Fig01ThroughputVariability reproduces Figure 1: the per-chunk throughput
// a single client observes over a highly variable session, with the
// quartile-ratio statistic the paper quotes (5.6 for its sample trace).
func Fig01ThroughputVariability() (*Figure, error) {
	video, err := referenceVideo(900)
	if err != nil {
		return nil, err
	}
	// A harsh session: Sigma calibrated for the paper's 75/25 ratio.
	tr := trace.Markov(trace.MarkovConfig{
		Base:      4 * units.Mbps,
		Sigma:     trace.SigmaForQuartileRatio(5.6),
		MeanDwell: 10 * time.Second,
		Duration:  time.Hour,
		Floor:     300 * units.Kbps,
		Ceiling:   20 * units.Mbps,
	}, rand.New(rand.NewSource(16)))
	_, chunks, err := runLogged(player.Config{
		Algorithm:  abr.NewBBA2(),
		Stream:     abr.NewStream(video, 0),
		Trace:      tr,
		WatchLimit: 40 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig01",
		Title:  "Measured per-chunk throughput of one session",
		XLabel: "session time",
		YLabel: "throughput (kb/s)",
	}
	series := Series{Name: "throughput"}
	var samples []float64
	for i, c := range chunks {
		samples = append(samples, c.Throughput.Kilobits())
		if i%8 == 0 { // thin the plotted series; stats use every chunk
			series.Points = append(series.Points, Point{
				X: fmt.Sprintf("%4.0fs", (c.At - c.Duration).Seconds()),
				Y: c.Throughput.Kilobits(),
			})
		}
	}
	fig.Series = []Series{series}
	summary, err := stats.Summarize(samples)
	if err != nil {
		return nil, err
	}
	ratio, _ := stats.QuartileRatio(samples)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("throughput range %.0f–%.0f kb/s (paper: ~500 kb/s to 17 Mb/s)", summary.Min, summary.Max),
		fmt.Sprintf("75th/25th percentile ratio = %.1f (paper's trace: 5.6)", ratio),
	)
	return fig, nil
}

// Fig04AggressiveRebuffer reproduces Figure 4: a capacity-estimating
// algorithm that is not conservative enough rides a 3 Mb/s stream into a
// long rebuffer after capacity collapses to 350 kb/s — even though capacity
// never drops below R_min, so the rebuffer is entirely unnecessary. The
// same scenario under BBA-0 stays rebuffer-free.
func Fig04AggressiveRebuffer() (*Figure, error) {
	video, err := media.NewCBR("fig4", media.DefaultLadder(), media.DefaultChunkDuration, 450)
	if err != nil {
		return nil, err
	}
	// "A video starts streaming at 3Mb/s over a 5Mb/s network. After 25s
	// the available capacity drops to 350 kb/s."
	tr := trace.Step(5*units.Mbps, 350*units.Kbps, 25*time.Second, time.Hour)
	stream := abr.NewStream(video, 0)

	aggressive := abr.NewAggressiveControl()
	aggressive.SeedCapacity(5 * units.Mbps)
	bad, badChunks, err := runLogged(player.Config{
		Algorithm:  aggressive,
		Stream:     stream,
		Trace:      tr,
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	good, err := player.Run(player.Config{
		Algorithm:  abr.NewBBA0(),
		Stream:     stream,
		Trace:      tr,
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "fig04",
		Title:  "Being too aggressive: rate and buffer under a capacity collapse",
		XLabel: "session time",
		YLabel: "video rate (kb/s) / buffer (s)",
	}
	var rate, buffer Series
	rate.Name = "agg. video rate"
	buffer.Name = "agg. buffer"
	for _, c := range badChunks {
		x := fmt.Sprintf("%4.0fs", (c.At - c.Duration).Seconds())
		rate.Points = append(rate.Points, Point{X: x, Y: c.Rate.Kilobits()})
		buffer.Points = append(buffer.Points, Point{X: x, Y: c.Buffer.Seconds()})
	}
	fig.Series = []Series{rate, buffer}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("aggressive estimator: playback frozen %.0f s in total across %d event(s) (paper: a single 200 s freeze)",
			bad.StallTime.Seconds(), bad.Rebuffers),
		"capacity ≥ 350 kb/s > R_min at all times, so every second of that freeze is unnecessary",
		fmt.Sprintf("BBA-0 on the identical scenario: %d rebuffers, %.0f s frozen", good.Rebuffers, good.StallTime.Seconds()),
	)
	return fig, nil
}

// Fig10VBRChunkSizes reproduces Figure 10: the size of 4-second chunks of a
// VBR title encoded at a nominal 3 Mb/s; the average is 1.5 MB and the
// max-to-average ratio e is about 2.
func Fig10VBRChunkSizes() (*Figure, error) {
	video, err := referenceVideo(1800)
	if err != nil {
		return nil, err
	}
	ri := video.Ladder.IndexOf(3000 * units.Kbps)
	fig := &Figure{
		ID:     "fig10",
		Title:  "Chunk sizes of a VBR title encoded at 3 Mb/s",
		XLabel: "playback position",
		YLabel: "chunk size (MB)",
	}
	s := Series{Name: "chunk size"}
	sizes := video.ChunkSizes(ri)
	for k := 0; k < len(sizes); k += 15 {
		s.Points = append(s.Points, Point{
			X: fmt.Sprintf("%5.0fs", (time.Duration(k) * video.ChunkDuration).Seconds()),
			Y: float64(sizes[k]) / 1e6,
		})
	}
	fig.Series = []Series{s}
	sizesF := make([]float64, len(sizes))
	for i, v := range sizes {
		sizesF[i] = float64(v)
	}
	acf1, _ := stats.Autocorrelation(sizesF, 1)
	acf60, _ := stats.Autocorrelation(sizesF, 60)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("average chunk size %.2f MB (paper: 1.5 MB = 4 s × 3 Mb/s)",
			float64(video.MeasuredAvgChunkSize(ri))/1e6),
		fmt.Sprintf("max-to-average ratio e = %.2f (paper: ≈2)", video.MaxToAvgRatio(ri)),
		fmt.Sprintf("scene structure: lag-1 autocorrelation %.2f (adjacent chunks share a scene), lag-60 %.2f (4 minutes apart, decorrelated)", acf1, acf60),
	)
	return fig, nil
}

// Fig12Reservoir reproduces the Figure 12 calculation: the dynamic
// reservoir along a title, shrinking through quiet scenes and expanding
// ahead of heavy ones, clamped to the paper's [8 s, 140 s].
func Fig12Reservoir() (*Figure, error) {
	video, err := referenceVideo(1800)
	if err != nil {
		return nil, err
	}
	stream := abr.NewStream(video, 0)
	fig := &Figure{
		ID:     "fig12",
		Title:  "Dynamic reservoir along the title (X = 480 s window)",
		XLabel: "playback position",
		YLabel: "reservoir (s)",
	}
	s := Series{Name: "reservoir"}
	var min, max float64 = 1e9, 0
	for k := 0; k < video.NumChunks(); k += 15 {
		r := abr.DynamicReservoir(stream, k, 0).Seconds()
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
		s.Points = append(s.Points, Point{
			X: fmt.Sprintf("%5.0fs", (time.Duration(k) * video.ChunkDuration).Seconds()),
			Y: r,
		})
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("reservoir spans %.0f–%.0f s across the title (paper clamp: 8–140 s)", min, max),
		"quiet scenes pin the reservoir at the lower clamp; sustained action sequences grow it",
	)
	return fig, nil
}

// Fig16StartupRamp reproduces Figure 16: the startup time series of BBA-1
// (follows the chunk map, ramps slowly) against BBA-2 (ΔB ramp, reaches the
// steady-state rate much sooner) on the same constant-capacity session.
func Fig16StartupRamp() (*Figure, error) {
	// The figure's regime: the network can sustain far more than the
	// title's top rate (a 3 Mb/s-capped ladder, as in the paper's
	// figure), so the steady-state rate is R_max. BBA-1 must climb the
	// whole cushion — the buffer has to grow to 90% of 240 s before the
	// chunk map reaches R_max — while BBA-2's ΔB rule steps up as fast as
	// the downloads prove the capacity. CBR isolates the ramp dynamics:
	// with VBR a run of tiny opening chunks can legitimately carry a high
	// nominal rate through the chunk map, obscuring the buffer-driven
	// climb the figure is about.
	ladder := media.DefaultLadder()[:8] // 235 kb/s … 3 Mb/s
	video, err := media.NewCBR("fig16", ladder, media.DefaultChunkDuration, 450)
	if err != nil {
		return nil, err
	}
	stream := abr.NewStream(video, 0)
	tr := trace.Constant(30*units.Mbps, time.Hour)
	steadyRung := 3000 * units.Kbps

	fig := &Figure{
		ID:     "fig16",
		Title:  "Startup ramp: video rate over the first minutes (fast link, 3 Mb/s title)",
		XLabel: "session time",
		YLabel: "video rate (kb/s)",
	}
	type run struct {
		name string
		alg  abr.Algorithm
	}
	reach := map[string]float64{}
	for _, r := range []run{{"BBA-1", abr.NewBBA1()}, {"BBA-2", abr.NewBBA2()}} {
		_, chunks, err := runLogged(player.Config{
			Algorithm:  r.alg,
			Stream:     stream,
			Trace:      tr,
			WatchLimit: 10 * time.Minute,
		})
		if err != nil {
			return nil, err
		}
		s := Series{Name: r.name}
		for _, c := range chunks {
			start := c.At - c.Duration
			if start > 6*time.Minute {
				break
			}
			s.Points = append(s.Points, Point{
				X: fmt.Sprintf("%4.0fs", start.Seconds()),
				Y: c.Rate.Kilobits(),
			})
		}
		reach[r.name] = sustainTime(chunks, steadyRung, 3)
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("time to sustain the steady-state rate (≥%v for 3+ chunks): BBA-2 %s, BBA-1 %s",
			steadyRung, timeOrNever(reach["BBA-2"]), timeOrNever(reach["BBA-1"])),
		"paper: BBA-1 follows the chunk map and ramps slowly; BBA-2 ramps faster and reaches the steady-state rate sooner",
	)
	return fig, nil
}

// sustainTime returns the first time the session held rate ≥ target for at
// least run consecutive chunks, or -1.
func sustainTime(chunks []telemetry.Event, target units.BitRate, run int) float64 {
	streak := 0
	for _, c := range chunks {
		if c.Rate >= target {
			streak++
			if streak >= run {
				return (c.At - c.Duration).Seconds()
			}
		} else {
			streak = 0
		}
	}
	return -1
}

func timeOrNever(v float64) string {
	if v < 0 {
		return "not within the session"
	}
	return fmt.Sprintf("%.0f s", v)
}

// Fig21ChunkMapCrossings reproduces Figure 21: with a constant buffer level
// (hence a fixed chunk-map value), the chunk-size variation across adjacent
// rates alone flips the selected rate over time.
func Fig21ChunkMapCrossings() (*Figure, error) {
	video, err := referenceVideo(450)
	if err != nil {
		return nil, err
	}
	stream := abr.NewStream(video, 0)
	b := 150 * time.Second // constant mid-cushion buffer
	m := abr.ChunkMap{
		ChunkMin:  stream.Ladder().Min().BytesIn(stream.ChunkDuration()),
		ChunkMax:  stream.Ladder().Max().BytesIn(stream.ChunkDuration()),
		Reservoir: 90 * time.Second,
		Cushion:   126 * time.Second,
	}
	cap := m.MaxChunk(b)

	fig := &Figure{
		ID:     "fig21",
		Title:  "Chunk-map crossings at a constant buffer level",
		XLabel: "chunk index",
		YLabel: "chunk size (MB) / selected ladder index",
	}
	// Plot three adjacent rate curves around the map value plus the
	// decision sequence.
	decisions := Series{Name: "selected idx"}
	curves := make([]Series, 3)
	base := 4 // rates R5..R7 straddle the mid-cushion map value
	for i := range curves {
		curves[i].Name = fmt.Sprintf("size@%v", stream.Ladder()[base+i])
	}
	cur := base + 1
	switches := 0
	for k := 0; k < 120; k++ {
		x := fmt.Sprintf("%3d", k)
		for i := range curves {
			curves[i].Points = append(curves[i].Points, Point{X: x, Y: float64(stream.ChunkSize(base+i, k)) / 1e6})
		}
		next := abr.Algorithm1Chunk(m, stream, cur, k, b)
		if next != cur {
			switches++
			cur = next
		}
		decisions.Points = append(decisions.Points, Point{X: x, Y: float64(cur)})
	}
	fig.Series = append(curves, decisions)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d rate switches over 120 chunks at a constant %.0f s buffer — VBR chunk variation alone flips the chunk map", switches, b.Seconds()),
		fmt.Sprintf("chunk-map value at this buffer: %.2f MB", float64(cap)/1e6),
	)
	return fig, nil
}

// Sec2SessionVariability reproduces the Section 1–2 population statistics:
// the fraction of sessions whose median throughput is below half their 95th
// percentile, and the quartile-ratio distribution.
func Sec2SessionVariability() (*Figure, error) {
	rng := rand.New(rand.NewSource(22))
	var ratios, m95s []float64
	const n = 600
	for i := 0; i < n; i++ {
		u := abtest.DrawUser(abtest.PopulationConfig{}, i%12, 0, rng)
		rates := u.Trace.Rates(time.Second)
		if qr, err := stats.QuartileRatio(rates); err == nil {
			ratios = append(ratios, qr)
		}
		if m, err := stats.MedianTo95Ratio(rates); err == nil {
			m95s = append(m95s, m)
		}
	}
	var below float64
	for _, m := range m95s {
		if m < 0.5 {
			below++
		}
	}
	fracBelow := below / float64(len(m95s))
	fig := &Figure{
		ID:     "sec2",
		Title:  "Population throughput-variability statistics",
		XLabel: "percentile",
		YLabel: "75/25 throughput ratio",
	}
	s := Series{Name: "quartile ratio"}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99} {
		v, err := stats.Percentile(ratios, p)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: fmt.Sprintf("p%02.0f", p), Y: v})
	}
	fig.Series = []Series{s}
	p90, _ := stats.Percentile(ratios, 90)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%.0f%% of sessions have median < ½·p95 throughput (paper §2.2: roughly 10%%, all-day)", 100*fracBelow),
		fmt.Sprintf("90th-percentile quartile ratio = %.1f (paper's Figure 1 session: 5.6, top ~10%%)", p90),
	)
	return fig, nil
}
