// Command bbasim simulates one streaming session in virtual time and
// prints its chunk-by-chunk timeline and quality metrics.
//
// Examples:
//
//	bbasim -alg BBA-2 -capacity 4000 -watch 10m
//	bbasim -alg Control -scenario step -watch 5m      # the Figure 4 drop
//	bbasim -alg BBA-1 -scenario variable -ratio 5.6   # a Figure 1 session
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

func main() {
	var (
		algName  = flag.String("alg", "BBA-2", "algorithm: "+strings.Join(abr.Names(), ", "))
		capacity = flag.Int("capacity", 4000, "link capacity in kb/s (base rate for the variable scenario)")
		scenario = flag.String("scenario", "constant", "network scenario: constant, step, variable, outage")
		ratio    = flag.Float64("ratio", 5.6, "75th/25th percentile throughput ratio for the variable scenario")
		watch    = flag.Duration("watch", 10*time.Minute, "how long the viewer watches")
		chunks   = flag.Int("chunks", 1800, "title length in 4-second chunks")
		seed     = flag.Int64("seed", 1, "random seed for title and trace generation")
		rmin     = flag.Int("rmin", 0, "promoted minimum rate in kb/s (0 = full ladder)")
		traceCSV = flag.String("trace", "", "stream over a capacity trace from a CSV file of duration_seconds,rate_bps rows instead of a synthetic scenario")
		chunkCSV = flag.String("chunks-csv", "", "also write the per-chunk log to this CSV file")
		ladder   = flag.String("ladder", "", "custom encoding ladder, comma-separated kb/s values (default: the paper's 235…5000)")
		verbose  = flag.Bool("v", false, "print every chunk instead of one line per 30 seconds")
	)
	flag.Parse()

	if err := run(os.Stdout, *algName, *capacity, *scenario, *ratio, *watch, *chunks, *seed, *rmin, *traceCSV, *chunkCSV, *ladder, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "bbasim:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, algName string, capacityKbps int, scenario string, ratio float64, watch time.Duration, chunks int, seed int64, rminKbps int, traceCSV, chunkCSV, ladderSpec string, verbose bool) error {
	alg, err := abr.New(algName)
	if err != nil {
		return err
	}
	ladder := media.DefaultLadder()
	if ladderSpec != "" {
		ladder, err = media.ParseLadder(ladderSpec)
		if err != nil {
			return err
		}
	}
	video, err := mkVideo(ladder, chunks, seed)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if traceCSV != "" {
		scenario = "file:" + traceCSV
		f, err := os.Open(traceCSV)
		if err != nil {
			return err
		}
		tr, err = trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		base := units.BitRate(capacityKbps) * units.Kbps
		tr, err = mkTrace(scenario, base, ratio, watch, seed)
		if err != nil {
			return err
		}
	}

	// The per-chunk log is the session's chunk_complete events.
	var completed []telemetry.Event
	res, err := player.Run(player.Config{
		Algorithm:  alg,
		Stream:     abr.NewStream(video, units.BitRate(rminKbps)*units.Kbps),
		Trace:      tr,
		WatchLimit: watch,
		Observer: telemetry.Func(func(e telemetry.Event) {
			if e.Kind == telemetry.ChunkComplete {
				completed = append(completed, e)
			}
		}),
	})
	if err != nil {
		return err
	}

	if chunkCSV != "" {
		f, err := os.Create(chunkCSV)
		if err != nil {
			return err
		}
		if err := writeChunkCSV(f, completed); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "time\tchunk\trate\tthroughput\tdownload\tbuffer")
	var nextPrint time.Duration
	for _, c := range completed {
		start := c.At - c.Duration
		if !verbose && start < nextPrint {
			continue
		}
		nextPrint = start + 30*time.Second
		fmt.Fprintf(w, "%.0fs\t%d\t%v\t%v\t%.2fs\t%.0fs\n",
			start.Seconds(), c.Chunk, c.Rate, c.Throughput, c.Duration.Seconds(), c.Buffer.Seconds())
	}
	w.Flush()

	fmt.Fprintf(out, "\nsession summary (%s, %s scenario)\n", alg.Name(), scenario)
	fmt.Fprintf(out, "  played            %v\n", res.Played.Round(time.Second))
	fmt.Fprintf(out, "  join delay        %v\n", res.JoinDelay.Round(time.Millisecond))
	fmt.Fprintf(out, "  rebuffers         %d (%.2f per playhour, %.1fs frozen)\n",
		res.Rebuffers, res.RebuffersPerPlayhour(), res.StallTime.Seconds())
	fmt.Fprintf(out, "  average rate      %.0f kb/s\n", res.AvgRateKbps())
	fmt.Fprintf(out, "  steady-state rate %.0f kb/s (after the first two minutes)\n", res.SteadyAvgRateKbps())
	fmt.Fprintf(out, "  switches          %d (%.1f per playhour)\n", res.Switches, res.SwitchesPerPlayhour())
	if res.Incomplete {
		fmt.Fprintf(out, "  NOTE: the session could not complete (permanent outage)\n")
	}
	return nil
}

// writeChunkCSV writes the session's chunk_complete events as CSV
// ("start_s,index,rate_kbps,bytes,download_s,throughput_kbps,buffer_s"),
// the raw series behind the time-series figures. A failed write sticks in
// the bufio.Writer, so Flush reports it.
func writeChunkCSV(w io.Writer, chunks []telemetry.Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "start_s,index,rate_kbps,bytes,download_s,throughput_kbps,buffer_s")
	for _, c := range chunks {
		fmt.Fprintf(bw, "%.3f,%d,%.0f,%d,%.3f,%.0f,%.3f\n",
			(c.At - c.Duration).Seconds(), c.Chunk, c.Rate.Kilobits(), c.Bytes,
			c.Duration.Seconds(), c.Throughput.Kilobits(), c.Buffer.Seconds())
	}
	return bw.Flush()
}

func mkVideo(ladder media.Ladder, chunks int, seed int64) (*media.Video, error) {
	return media.NewVBR(media.VBRConfig{
		Title:     "bbasim",
		Ladder:    ladder,
		NumChunks: chunks,
	}, newRand(seed))
}

func mkTrace(scenario string, base units.BitRate, ratio float64, watch time.Duration, seed int64) (*trace.Trace, error) {
	dur := watch + 15*time.Minute
	switch scenario {
	case "constant":
		return trace.Constant(base, dur), nil
	case "step":
		// The Figure 4 shape: collapse to 350 kb/s after 25 s.
		return trace.Step(base, 350*units.Kbps, 25*time.Second, dur), nil
	case "variable":
		return trace.Markov(trace.MarkovConfig{
			Base:     base,
			Sigma:    trace.SigmaForQuartileRatio(ratio),
			Duration: dur,
		}, newRand(seed+1)), nil
	case "outage":
		return faults.MustSchedule([]faults.Fault{
			{Kind: faults.Blackout, Start: 2 * time.Minute, Duration: 25 * time.Second},
		}).ApplyToTrace(trace.Constant(base, dur))
	default:
		return nil, fmt.Errorf("unknown scenario %q", scenario)
	}
}
