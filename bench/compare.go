package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	// verdictMoved is repeat's word for a timing whose set medians differ
	// by more than its bound: reported, but the driver gates no timing, so
	// it is not a failure of the self-check.
	verdictMoved = "moved"
)

// row compares one end-to-end metric on one workload between a baseline
// file A and a candidate file B.
type row struct {
	Workload string
	Metric   metricDef
	A, B     []float64
	Verdict  string
}

// worseBy is how much b is worse than a as a share of a (negative when b
// is better), in the metric's own direction.
func worseBy(md metricDef, a, b float64) float64 {
	if md.Higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// verdict applies the benchmark's rule. The medians decide when the runs
// are steadier than the bound. When the run-to-run spread of either side
// is wider than the bound the medians cannot decide: the row is ok only if
// every run of B reads better than every run of A, regressed only if every
// run reads worse by more than the bound, and unresolved while the run
// ranges overlap.
func verdict(md metricDef, a, b []float64) string {
	worse := worseBy(md, median(a), median(b))
	wide := false
	for _, xs := range [][]float64{a, b} {
		if len(xs) >= 2 && spread(xs) > md.Bound {
			wide = true
		}
	}
	if !wide {
		if worse > md.Bound {
			return verdictRegressed
		}
		return verdictOK
	}
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	if loA <= hiB && loB <= hiA {
		return verdictUnresolved
	}
	// Disjoint ranges: every run of one side beats every run of the other.
	if worse > md.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// agree is repeat's self-check: two sets of runs of the same code must
// have medians within the bound of each other, in either direction, on
// every metric BENCHMARK.json lists.
func agree(md metricDef, a, b []float64) string {
	switch {
	case math.Abs(worseBy(md, median(a), median(b))) <= md.Bound:
		return verdictOK
	case md.Role == "":
		return verdictMoved
	default:
		return verdictRegressed
	}
}

// comparison is the outcome of comparing two result files.
type comparison struct {
	Rows  []row
	Notes []string // flagged, but not failures
	// Failures counts what the exit code is derived from: regressed rows,
	// and runs of B that failed a correctness check.
	Failures int
}

func valuesOf(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles builds one row per (metric, workload) present in both files.
func compareFiles(a, b *resultFile, judge func(md metricDef, a, b []float64) string) (*comparison, error) {
	if a.Quick != b.Quick {
		return nil, fmt.Errorf("one file holds -quick results and the other full-scale results; they are not comparable")
	}
	c := &comparison{}
	if a.Seconds != b.Seconds {
		c.Notes = append(c.Notes, fmt.Sprintf("run lengths differ: %gs vs %gs", a.Seconds, b.Seconds))
	}
	for _, def := range workloads {
		for _, md := range def.metrics {
			va, vb := valuesOf(a.Runs, def.name, md.Name), valuesOf(b.Runs, def.name, md.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{Workload: def.name, Metric: md, A: va, B: vb, Verdict: judge(md, va, vb)}
			if r.Verdict == verdictRegressed {
				c.Failures++
			}
			c.Rows = append(c.Rows, r)
		}
		shaA, shaB := reportSHA(a.Runs, def.name), reportSHA(b.Runs, def.name)
		if shaA != "" && shaB != "" && shaA != shaB && a.Seed == b.Seed {
			c.Notes = append(c.Notes, fmt.Sprintf("%s: simulated results changed (report_sha256 %.12s… → %.12s…)", def.name, shaA, shaB))
		}
	}
	for _, r := range b.Runs {
		if !r.Correct {
			c.Failures++
			c.Notes = append(c.Notes, fmt.Sprintf("%s: a run failed its correctness checks: %v", r.Workload, r.Failures))
		}
	}
	return c, nil
}

func reportSHA(runs []*runResult, workload string) string {
	for _, r := range runs {
		if r.Workload == workload && r.ReportSHA != "" {
			return r.ReportSHA
		}
	}
	return ""
}

// quart formats a side's median and quartiles.
func quart(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.4g (n=1)", median(xs))
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", median(xs), q1, q3, len(xs))
}

func (c *comparison) print(w io.Writer) {
	fmt.Fprintf(w, "%-22s %-28s %-34s %-34s %-22s %5s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict (* = in BENCHMARK.json)")
	for _, r := range c.Rows {
		ma, mb := median(r.A), median(r.B)
		better := "lower"
		if r.Metric.Higher {
			better = "higher"
		}
		gated := ""
		if r.Metric.Role != "" {
			gated = " *"
		}
		fmt.Fprintf(w, "%-22s %-28s %-34s %-34s %-22s %4.0f%%  %s%s\n", r.Workload, r.Metric.Name+" "+r.Metric.Unit, quart(r.A), quart(r.B),
			fmt.Sprintf("%.3f of %.4g, %s better", mb/ma, ma, better), r.Metric.Bound*100, r.Verdict, gated)
	}
	for _, n := range c.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// cmdCompare is `bench compare A.json B.json`: A is the baseline.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		usage()
		return 2
	}
	a, err := readResultFile(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(args[1]); err == nil {
			var c *comparison
			if c, err = compareFiles(a, b, verdict); err == nil {
				c.print(os.Stdout)
				fmt.Printf("%d regressed or failed\n", c.Failures)
				if c.Failures > 0 {
					return 1
				}
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// cmdRepeat is `bench repeat`: the self-check that two sets of runs of the
// same tree agree within the benchmark's own bounds on every metric
// BENCHMARK.json lists; a timing that moved is shown and not counted. Each set is -runs full benchmarks; sets are compared by median.
func cmdRepeat(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ExitOnError)
	sets := fs.Int("sets", 2, "sets of runs")
	runs := fs.Int("runs", 3, "full benchmark runs per set")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed part of each workload")
	quick := fs.Bool("quick", false, "tiny sizes")
	fs.Parse(args)
	e, err := newEnv(*seed, *seconds, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// The sets take turns, and the set that goes first rotates: run i of
	// every set happens within the same few minutes, so a drift of the
	// machine between the first run and the last lands on all sets alike.
	perSet := make([][]*runResult, *sets)
	for i := 0; i < *runs; i++ {
		for k := 0; k < *sets; k++ {
			s := (i + k) % *sets
			rs, err := runChildren(e)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			perSet[s] = append(perSet[s], rs...)
		}
	}
	var files []*resultFile
	for s, all := range perSet {
		path := filepath.Join(e.outDir(), fmt.Sprintf("set%d.json", s+1))
		if err := writeResultFile(path, e, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		files = append(files, f)
	}
	failures := 0
	for s := 1; s < len(files); s++ {
		c, err := compareFiles(files[0], files[s], agree)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("set 1 (A) against set %d (B), medians of %d runs each:\n", s+1, *runs)
		c.print(os.Stdout)
		failures += c.Failures
	}
	fmt.Printf("%d gated metrics disagree beyond their bound\n", failures)
	if failures > 0 {
		return 1
	}
	return 0
}
