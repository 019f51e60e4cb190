package main

import (
	"fmt"
	"sort"
)

// Workload names are fixed: later issues cite them.
const (
	wlScalar = "campaign-scalar"
	wlBatch  = "campaign-batch-faults"
	wlOrigin = "origin-openloop"
	wlIngest = "fleet-ingest"
	wlQuery  = "archive-query"
)

// The driver's contract wants one list of end-to-end metrics that every
// workload reports, and rejects a benchmark whose metrics move between two
// sets of runs of the same code by more than their bound, at most 25 %. On
// the 2-core sandbox every timing moves by more than that between a quiet
// quarter hour and a contended one (README, "Steadiness"), so
// BENCHMARK.json lists the two roles that do not — set-up time and bytes per
// operation — and each workload fills both with its own named metric. The timings are measured, printed and judged by `bench
// compare` all the same; the driver does not gate them.
const (
	roleSetup = "setup_s"
	roleBytes = "bytes_per_op"
)

// timeBound is the bound of every timing: the widest the contract allows,
// and still narrower than the sandbox's swing.
const timeBound = 0.25

// metricDef is one end-to-end metric of one workload.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // true when a larger value is better
	// Bound is the share of the baseline median by which the metric may
	// worsen before compare calls it a regression. A metric that fills a
	// role carries the role's bound from BENCHMARK.json.
	Bound float64
	// Role is the BENCHMARK.json end_to_end name the metric reports as;
	// empty for a timing, which only `bench run` and `compare` see.
	Role string
	// Scale converts the metric's unit into the role's (0 means 1).
	Scale float64
}

// roleDef is one BENCHMARK.json end_to_end entry; lower is better for all
// of them.
type roleDef struct {
	Name  string
	Unit  string
	Bound float64
}

// roles is the end_to_end list of BENCHMARK.json; a test keeps the two in
// step.
var roles = []roleDef{
	{roleSetup, "s", 0.25},
	{roleBytes, "B", 0.05},
}

func roleOf(name string) roleDef {
	for _, r := range roles {
		if r.Name == name {
			return r
		}
	}
	panic("bench: unknown role " + name)
}

func roleBound(name string) float64 { return roleOf(name).Bound }

// m builds a metricDef that fills role.
func m(name, unit, role string) metricDef {
	return metricDef{Name: name, Unit: unit, Bound: roleBound(role), Role: role}
}

// timing builds the metricDef of a timing.
func timing(name, unit string, higher bool) metricDef {
	return metricDef{Name: name, Unit: unit, Higher: higher, Bound: timeBound}
}

var setupMetric = m("setup_s", "s", roleSetup)

// daemonMemory is the daemon's peak resident memory on the two daemon
// workloads. In-process the number is the benchmark's own heap as much as
// the system's, and steps by a heap arena (17 or 21 MB on campaign-scalar).
var daemonMemory = metricDef{Name: "peak_rss_mb", Unit: "MB", Bound: 0.25}

// campaignMetrics serve both campaign workloads.
var campaignMetrics = []metricDef{
	setupMetric,
	timing("sessions_per_s", "1/s", true),
	timing("cpu_us_per_session", "us", false),
	{Name: "alloc_kb_per_session", Unit: "KB", Bound: roleBound(roleBytes), Role: roleBytes, Scale: 1024},
}

var originMetrics = []metricDef{
	setupMetric,
	timing("saturation_rps", "1/s", true),
	timing("origin_cpu_us_per_req", "us", false),
	timing("ttfb_p50_ms", "ms", false),
	m("wire_bytes_per_req", "B", roleBytes),
	daemonMemory,
}

var ingestMetrics = []metricDef{
	setupMetric,
	timing("ingest_events_per_s", "1/s", true),
	timing("collector_cpu_us_per_event", "us", false),
	m("store_bytes_per_event", "B", roleBytes),
	daemonMemory,
}

var queryMetrics = []metricDef{
	setupMetric,
	timing("aggregate_events_per_s", "1/s", true),
	timing("scan_session_ms", "ms", false),
	timing("scan_kind_events_per_s", "1/s", true),
	timing("export_mb_per_s", "MB/s", true),
	m("query_alloc_bytes_per_event", "B", roleBytes),
}

// value is one measured number. N is the sample count behind a timing
// (repetitions, windows or requests), 0 where it has no meaning.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one run of one workload, as `bench run -out` stores it.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Quick    bool   `json:"quick"`
	Traced   bool   `json:"traced,omitempty"`
	Correct  bool   `json:"correct"`
	// Attempted and Failed count operations; a failed correctness check is
	// a failed operation.
	Attempted int64 `json:"ops_attempted"`
	Failed    int64 `json:"ops_failed"`
	// ReportSHA is the SHA-256 of the campaign report JSON (campaign
	// workloads only): it changes when simulated results change.
	ReportSHA string `json:"report_sha256,omitempty"`
	// Metrics are the workload's end-to-end metrics by name (untraced run)
	// or the per-layer metrics (traced run).
	Metrics map[string]value `json:"metrics"`
	// Info holds what is reported but never gated: tails, generator
	// lateness, rate steps, build time.
	Info map[string]value `json:"info,omitempty"`
	// Failures are the correctness checks that failed, for the reader.
	Failures []string `json:"failures,omitempty"`
}

func newResult(name string, e *env) *runResult {
	return &runResult{
		Workload: name, Seed: e.seed, Quick: e.quick, Correct: true,
		Metrics: map[string]value{}, Info: map[string]value{},
	}
}

func (r *runResult) set(name, unit string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

func (r *runResult) info(name, unit string, v float64, n int) {
	r.Info[name] = value{Value: v, Unit: unit, N: n}
}

// setWindowed reports a timing measured over many short windows: the best
// decile as the metric (see best), the median window beside it, ungated.
func (r *runResult) setWindowed(name, unit string, windows []float64, higher bool) {
	r.set(name, unit, best(windows, higher), len(windows))
	r.info(name+".median", unit, median(windows), len(windows))
}

// fail records a failed correctness check as a failed operation.
func (r *runResult) fail(format string, args ...any) { r.failOps(1, format, args...) }

// failOps records n failed operations under one description.
func (r *runResult) failOps(n int64, format string, args ...any) {
	r.Correct = false
	r.Failed += n
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and fails it unless ok.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// contractMetrics maps a run's metrics onto the names BENCHMARK.json lists:
// role names for an untraced run, the per-layer names unchanged for a
// traced one.
func contractMetrics(def *workloadDef, r *runResult) (map[string]value, error) {
	out := map[string]value{}
	if r.Traced {
		for _, name := range layerNames {
			v, ok := r.Metrics[name]
			if !ok {
				return nil, fmt.Errorf("traced run did not measure %s", name)
			}
			out[name] = value{Value: v.Value, Unit: v.Unit}
		}
		return out, nil
	}
	for _, md := range def.metrics {
		if md.Role == "" {
			continue
		}
		v, ok := r.Metrics[md.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", def.name, md.Name)
		}
		scale := md.Scale
		if scale == 0 {
			scale = 1
		}
		out[md.Role] = value{Value: v.Value * scale, Unit: roleOf(md.Role).Unit}
	}
	return out, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
