package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// measure runs the timed part and the correctness checks, filling r.
	// An error means the run could not be completed at all.
	measure(r *runResult) error
	// close tears the set-up down (daemons stopped, directories removed).
	close()
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// daemons are the cmd/ binaries the workload boots. With any, the
	// system under test is a daemon and the benchmark process only the load
	// generator: it runs with GOMAXPROCS=1 on CPU 0 and leaves the other
	// CPUs to the daemon.
	daemons []string
	// prepare, when set, makes the workload's inputs once per run, before
	// the set-ups and off their clock; its time is reported as prepare_s.
	prepare func(e *env) error
	setup   func(e *env) (instance, error)
	metrics []metricDef
}

var workloads = []*workloadDef{
	{
		name:    wlScalar,
		why:     "The paper's weekend A/B on the scalar engine: draw, trace synthesis, player.Run and the campaign fold do all the work; batch, faults and the daemons do none.",
		setup:   setupCampaign(false),
		metrics: campaignMetrics,
	},
	{
		name:    wlBatch,
		why:     "The same session engine in lock-step lanes with shared plans and fault weather, so a gain for one engine or the clean path that costs the other shows.",
		setup:   setupCampaign(true),
		metrics: campaignMetrics,
	},
	{
		name:    wlOrigin,
		why:     "Independent viewers are an open loop: chunk GETs on a fixed schedule against the dashserver process, timed from the intended start; only dash, telemetry.Prom and net/http work.",
		daemons: []string{"dashserver"},
		setup:   setupOrigin,
		metrics: originMetrics,
	},
	{
		name:    wlIngest,
		why:     "The write path: shipper frames into the bbacollect process, decode, dedup, WAL append gating the ACK, compaction into blocks; checked exactly-once after SIGTERM.",
		daemons: []string{"bbacollect"},
		setup:   setupIngest,
		metrics: ingestMetrics,
	},
	{
		name:    wlQuery,
		why:     "The read path over the layer fleet-ingest writes: footer pruning, column-slab rollup, page decode and lossless export over blocks plus a live WAL tail.",
		prepare: prepareQuery,
		setup:   setupQuery,
		metrics: queryMetrics,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// settle ends every full-scale set-up: the Go runtime's background sweep
// and scavenger, a daemon's start-up goroutines and the kernel's writeback
// of a freshly built store finish off the clock, and the first timed window
// starts from a quiet process. It is part of setup_s, which it also keeps
// usable on the sandbox: a warm-up of 0.3 s swings by 30 % with the
// neighbours, the same warm-up and the pause by 11 %, inside the bound,
// while half a second of work added to set-up still reads as +60 %.
const settle = 500 * time.Millisecond

// runWorkload builds what the workload boots, sets it up three times
// (setup_s is the median; once with -quick), measures once and tears down.
func runWorkload(def *workloadDef, e *env) (*runResult, error) {
	if err := e.buildDaemons(def.daemons...); err != nil {
		return nil, err
	}
	if len(def.daemons) > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		unpin, err := e.pinGenerator()
		if err != nil {
			return nil, err
		}
		defer unpin()
	}
	var prepareS float64
	if def.prepare != nil {
		t0 := time.Now()
		if err := def.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: preparing the input: %w", def.name, err)
		}
		prepareS = time.Since(t0).Seconds()
	}
	var setups []float64
	var inst instance
	for i := 0; i < e.scale(3, 1); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		if !e.quick {
			time.Sleep(settle)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	r := newResult(def.name, e)
	r.set("setup_s", "s", median(setups), len(setups))
	if len(def.daemons) > 0 {
		r.info("build_s", "s", e.buildS, 0)
	}
	if def.prepare != nil {
		r.info("prepare_s", "s", prepareS, 0)
	}
	if err := inst.measure(r); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	return r, nil
}

// resultFile is what `bench run -out` writes and `bench compare` reads.
type resultFile struct {
	Schema  string       `json:"schema"`
	Quick   bool         `json:"quick"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Go      string       `json:"go"`
	NProc   int          `json:"nproc"`
	Runs    []*runResult `json:"runs"`
}

const resultSchema = "bba-bench/v1"

func writeResultFile(path string, e *env, runs []*runResult) error {
	data, err := json.MarshalIndent(resultFile{
		Schema: resultSchema, Quick: e.quick, Seed: e.seed, Seconds: e.seconds,
		Go: runtime.Version(), NProc: e.nproc, Runs: runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, def *workloadDef, r *runResult) {
	label := r.Workload
	if r.Quick {
		label += " [quick]"
	}
	if r.Traced {
		for _, name := range sortedKeys(r.Metrics) {
			v := r.Metrics[name]
			fmt.Fprintf(w, "%-22s %-36s %14.4f %s\n", "layer", name, v.Value, v.Unit)
		}
	} else {
		for _, md := range def.metrics {
			v := r.Metrics[md.Name]
			// A metric BENCHMARK.json lists is gated by the driver under its
			// role's name; a timing is judged by `bench compare` only.
			gate := "  compare only"
			if md.Role != "" {
				gate = "  gated as " + md.Role
			}
			fmt.Fprintf(w, "%-22s %-28s %14.4f %-5s n=%-6d bound %2.0f%%%s\n", label, md.Name, v.Value, v.Unit, v.N, md.Bound*100, gate)
		}
	}
	for _, name := range sortedKeys(r.Info) {
		v := r.Info[name]
		fmt.Fprintf(w, "%-22s %-28s %14.4f %-5s n=%-6d reported\n", label, name, v.Value, v.Unit, v.N)
	}
	if r.ReportSHA != "" {
		fmt.Fprintf(w, "%-22s report_sha256 %s\n", label, r.ReportSHA)
	}
	fmt.Fprintf(w, "%-22s ops_attempted %d ops_failed %d\n", label, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-22s FAILED CHECK: %s\n", label, f)
	}
}

// cmdRun is `bench run`: with -workload it measures that workload in this
// process; without, it runs every workload in a fresh child process each,
// so no workload inherits another's heap, caches or GOMAXPROCS.
func cmdRun(args []string, traceDefault int) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "run only this workload (default: all five, one child process each)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed part of each workload")
	trace := fs.Int("trace", traceDefault, "1: traced run, reports the per-layer metrics and writes bench/out/trace.json")
	quick := fs.Bool("quick", false, "tiny sizes for CI and reviewers; results are labelled and not comparable to full scale")
	runs := fs.Int("runs", 1, "repeat the whole benchmark this many times (for compare's quartiles)")
	out := fs.String("out", "", "write the results as JSON to this file")
	fs.Parse(args)

	e, err := newEnv(*seed, *seconds, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var all []*runResult
	ok := true
	for i := 0; i < *runs; i++ {
		switch {
		case *trace == 1:
			r, err := runTraced(e, *workload)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printRun(os.Stdout, nil, r)
			all = append(all, r)
		case *workload != "":
			def := findWorkload(*workload)
			if def == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
				return 2
			}
			r, err := runWorkload(def, e)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printRun(os.Stdout, def, r)
			all = append(all, r)
		default:
			rs, err := runChildren(e)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			all = append(all, rs...)
		}
	}
	for _, r := range all {
		ok = ok && r.Correct
	}
	if *out != "" {
		if err := writeResultFile(*out, e, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver's contract: with one workload named, the last line of
	// standard output is one JSON object.
	if *workload != "" {
		last := all[len(all)-1]
		metrics, err := contractMetrics(findWorkload(*workload), last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

// runChildren runs every workload once, each in a fresh child process of
// this binary, and collects the children's result files.
func runChildren(e *env) ([]*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("results")
	if err != nil {
		return nil, err
	}
	var all []*runResult
	for _, def := range workloads {
		path := filepath.Join(dir, def.name+".json")
		args := []string{"run", "-workload", def.name, "-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(e.seconds), "-out", path}
		if e.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = e.root
		cmd.Stderr = os.Stderr
		// The child's table goes to our stdout; its JSON line is dropped.
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		copyTable(os.Stdout, pipe)
		runErr := cmd.Wait()
		f, err := readResultFile(path)
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %v", def.name, runErr)
			}
			return nil, err
		}
		all = append(all, f.Runs...)
	}
	return all, nil
}

// copyTable copies a child's table to w, dropping its contract JSON line.
func copyTable(w io.Writer, r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Fprintln(w, line)
		}
	}
}
