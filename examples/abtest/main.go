// A/B experiment: run a reduced version of the paper's weekend deployment —
// six algorithm groups over a paired synthetic population — and print the
// peak-hour comparison behind Figures 7, 17 and 24.
//
//	go run ./examples/abtest
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"bba"
	"bba/internal/metrics"
	"bba/internal/stats"
)

func main() {
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
}
