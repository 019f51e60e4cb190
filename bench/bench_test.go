package main

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bba/internal/telemetry"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 7}, 50); got != 3 {
		t.Errorf("percentile({3,7}, 50) = %v, want 3: nearest rank never interpolates", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 75, true}, {100, 90, true}, {200, 95, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true}, {24000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rankOf(c.n, p); beyond < 10 {
				t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles({10,20}) = %v, %v; Python gives 7.5, 22.5", q1, q3)
	}
	if got := best([]float64{5, 1, 9, 3}, true); got != 9 {
		t.Errorf("best of four windows, higher better = %v, want the best window 9", got)
	}
	if got := best([]float64{5, 1, 9, 3}, false); got != 1 {
		t.Errorf("best of four windows, lower better = %v, want the best window 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},    // overlaps a: the union is [10, 70]
		{Name: "c", Start: 90, End: 120, Parent: 0},   // sticks out: only [90, 100] counts
		{Name: "leaf", Start: 35, End: 45, Parent: 2}, // a grandchild takes from b, not from parent
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"parent": {N: 1, Total: 100, Self: 30},
		"a":      {N: 1, Total: 40, Self: 40},
		"b":      {N: 1, Total: 40, Self: 30},
		"c":      {N: 1, Total: 30, Self: 30},
		"leaf":   {N: 1, Total: 10, Self: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v\nwant        %+v", got, want)
	}
}

func TestRecorderMergeRebasesParents(t *testing.T) {
	a, b := newRecorder(), newRecorder()
	a.end(a.begin("x", -1, 1))
	root := b.begin("y", -1, 2)
	b.end(b.begin("z", root, 2))
	b.end(root)
	b.count("n", 3)
	a.merge(b)
	if len(a.spans) != 3 || a.spans[2].Parent != 1 || a.spans[1].Parent != -1 || a.counts["n"] != 3 {
		t.Errorf("merged spans %+v counts %v", a.spans, a.counts)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("off", -1, 0)) // the untraced twin must not record or crash
	nilRec.count("off", 1)
}

// TestOpenLoopTimesFromIntendedStart drives the generator against a server
// that takes 20 ms per response at 200 req/s on one connection: the loop
// cannot keep up, and the schedule must not care.
func TestOpenLoopTimesFromIntendedStart(t *testing.T) {
	starts := intendedStarts(200, 20)
	for i, s := range starts {
		if want := time.Duration(i) * 5 * time.Millisecond; s != want {
			t.Fatalf("intended start %d = %v, want %v", i, s, want)
		}
	}
	body := bytes.Repeat([]byte("x"), 1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Write(body)
	})}
	go srv.Serve(ln)
	defer srv.Close()

	g, err := newOriginGen(ln.Addr().String(), []int64{1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	ticks := 0
	ss, err := g.run(starts, 0, rand.New(rand.NewSource(1)), func(time.Duration, int) { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != len(starts) || g.failed != 0 {
		t.Fatalf("%d of %d requests completed, %d failed", len(ss), len(starts), g.failed)
	}
	for i, s := range ss {
		if s.intended != starts[i] {
			t.Errorf("request %d timed from %v, its intended start is %v", i, s.intended, starts[i])
		}
		if !s.ok || s.first < s.sent || s.done < s.first {
			t.Errorf("request %d: %+v", i, s)
		}
		if i > 0 && s.sent < ss[i-1].done {
			t.Errorf("request %d sent at %v, before the previous response ended at %v", i, s.sent, ss[i-1].done)
		}
	}
	// The last request was due at 95 ms but waited for nineteen 20 ms
	// responses: its TTFB from the intended start must hold that wait, and
	// the wait must not count as generator lateness.
	last := ss[len(ss)-1]
	if ttfb := last.first - last.intended; ttfb < 250*time.Millisecond {
		t.Errorf("last TTFB %v hides the queue the open loop built up", ttfb)
	}
	if late := last.sent - last.ready; late > 5*time.Millisecond {
		t.Errorf("generator lateness %v counts the server's queue", late)
	}
	if ticks < 2 {
		t.Errorf("%d window ticks over a 400 ms phase", ticks)
	}
}

func TestParseHead(t *testing.T) {
	status, n, err := parseHead([]byte("HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\ncontent-length: 29411\r\nDate: x"))
	if err != nil || status != 200 || n != 29411 {
		t.Errorf("parseHead = %d, %d, %v", status, n, err)
	}
	for _, bad := range []string{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked", "ICY 200 OK\r\nContent-Length: 1", "HTTP/1.1 abc\r\nContent-Length: 1"} {
		if _, _, err := parseHead([]byte(bad)); err == nil {
			t.Errorf("parseHead(%q) accepted", bad)
		}
	}
}

func file(quick bool, runs ...*runResult) *resultFile {
	return &resultFile{Schema: resultSchema, Quick: quick, Seed: 1, Seconds: 10, Runs: runs}
}

func run(workload, sha string, metrics map[string]float64) *runResult {
	r := &runResult{Workload: workload, Correct: true, ReportSHA: sha, Metrics: map[string]value{}}
	for k, v := range metrics {
		r.Metrics[k] = value{Value: v}
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) []*runResult {
		var rs []*runResult
		for _, f := range []float64{0.99, 1, 1.01} {
			rs = append(rs, run(wlScalar, "aaa", map[string]float64{"sessions_per_s": 10000 * v * f, "cpu_us_per_session": 100 / v * f, "alloc_kb_per_session": 30 * f / f}))
		}
		return rs
	}
	noisy := func(base float64) []*runResult {
		var rs []*runResult
		for _, f := range []float64{0.7, 1, 1.4} {
			rs = append(rs, run(wlScalar, "bbb", map[string]float64{"sessions_per_s": base * f}))
		}
		return rs
	}
	verdictOf := func(c *comparison, metric string) string {
		for _, r := range c.Rows {
			if r.Metric.Name == metric {
				return r.Verdict
			}
		}
		return "missing"
	}

	// Steady runs: the medians decide, in the metric's own direction.
	c, err := compareFiles(file(false, steady(1)...), file(false, steady(0.7)...), verdict)
	if err != nil {
		t.Fatal(err)
	}
	if v := verdictOf(c, "sessions_per_s"); v != verdictRegressed {
		t.Errorf("30%% fewer sessions/s: %s", v)
	}
	if v := verdictOf(c, "cpu_us_per_session"); v != verdictRegressed {
		t.Errorf("43%% more CPU per session: %s", v)
	}
	if v := verdictOf(c, "alloc_kb_per_session"); v != verdictOK {
		t.Errorf("unchanged allocation: %s", v)
	}
	if c.Failures != 2 {
		t.Errorf("%d failures counted, want 2", c.Failures)
	}
	if c, _ := compareFiles(file(false, steady(1)...), file(false, steady(1.5)...), verdict); c.Failures != 0 {
		t.Errorf("an improvement counted %d failures", c.Failures)
	}

	// Spread wider than the bound and overlapping ranges: unresolved, and
	// not a failure. Disjoint ranges decide again.
	c, _ = compareFiles(file(false, noisy(10000)...), file(false, noisy(7000)...), verdict)
	if v := verdictOf(c, "sessions_per_s"); v != verdictUnresolved || c.Failures != 0 {
		t.Errorf("noisy overlapping runs: %s, %d failures", v, c.Failures)
	}
	c, _ = compareFiles(file(false, noisy(10000)...), file(false, noisy(3000)...), verdict)
	if v := verdictOf(c, "sessions_per_s"); v != verdictRegressed {
		t.Errorf("noisy but every run worse: %s", v)
	}
	c, _ = compareFiles(file(false, noisy(3000)...), file(false, noisy(10000)...), verdict)
	if v := verdictOf(c, "sessions_per_s"); v != verdictOK {
		t.Errorf("noisy but every run better: %s", v)
	}

	// A changed report hash is flagged, not failed.
	c, _ = compareFiles(file(false, steady(1)...), file(false, run(wlScalar, "ccc", map[string]float64{"sessions_per_s": 10000})), verdict)
	if c.Failures != 0 || len(c.Notes) != 1 || !strings.Contains(c.Notes[0], "simulated results changed") {
		t.Errorf("changed report: %d failures, notes %q", c.Failures, c.Notes)
	}
	// A run that failed its checks is a failure whatever its numbers.
	broken := run(wlScalar, "aaa", map[string]float64{"sessions_per_s": 10000})
	broken.Correct = false
	if c, _ := compareFiles(file(false, steady(1)...), file(false, broken), verdict); c.Failures != 1 {
		t.Errorf("incorrect run: %d failures", c.Failures)
	}
	// Quick results are refused against full-scale ones.
	if _, err := compareFiles(file(true, steady(1)...), file(false, steady(1)...), verdict); err == nil {
		t.Error("quick against full scale was compared")
	}
	// repeat's rule is symmetric, and counts only what BENCHMARK.json lists:
	// a set that allocates 10 % less disagrees, a set 40 % faster has moved.
	leaner := steady(1.4)
	for _, r := range leaner {
		r.Metrics["alloc_kb_per_session"] = value{Value: 27}
	}
	c, _ = compareFiles(file(false, steady(1)...), file(false, leaner...), agree)
	if v := verdictOf(c, "alloc_kb_per_session"); v != verdictRegressed || c.Failures != 1 {
		t.Errorf("sets 10%% apart on a gated metric: %s, %d failures", v, c.Failures)
	}
	if v := verdictOf(c, "sessions_per_s"); v != verdictMoved {
		t.Errorf("sets 40%% apart on a timing: %s", v)
	}
}

func TestCorpusIsDeterministicPerSeed(t *testing.T) {
	a, err := buildCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildCorpus(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different corpora")
	}
	c, _ := buildCorpus(8)
	if reflect.DeepEqual(a.base, c.base) {
		t.Error("seeds 7 and 8 gave the same corpus")
	}
	kinds := map[string]bool{}
	for _, s := range a.base {
		for _, e := range s {
			kinds[e.Kind.String()] = true
		}
	}
	if len(a.base) != corpusSessions || len(kinds) < 6 {
		t.Errorf("%d sessions with kinds %v: not a real journal's mix", len(a.base), kinds)
	}
	// The stream yields exactly n events under distinct labels per lane.
	want0, want1 := map[string]*sent{}, map[string]*sent{}
	n0, n1 := 0, 0
	a.stream(0, 2, 5000, want0, func(telemetry.Event) { n0++ })
	a.stream(1, 2, 5000, want1, func(telemetry.Event) { n1++ })
	if n0 != 5000 || n1 != 5000 {
		t.Errorf("streams yielded %d and %d events, want 5000 each", n0, n1)
	}
	for label := range want0 {
		if want1[label] != nil {
			t.Errorf("lanes 0 and 1 share session label %s", label)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the benchmark's tables; regenerate it with `bench manifest > BENCHMARK.json`")
	}
	// Every workload fills every role exactly once, so every run can report
	// every end-to-end metric the file lists.
	for _, def := range workloads {
		filled := map[string]int{}
		for _, md := range def.metrics {
			if md.Role != "" {
				filled[md.Role]++
				if md.Bound != roleBound(md.Role) {
					t.Errorf("%s %s: bound %v differs from its role's", def.name, md.Name, md.Bound)
				}
			}
		}
		for _, role := range roles {
			if filled[role.Name] != 1 {
				t.Errorf("%s fills role %s %d times", def.name, role.Name, filled[role.Name])
			}
		}
	}
	if len(layerDefs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layerDefs))
	}
}

func quickEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runCleanups)
	return e
}

// TestQuickSmoke runs all five workloads at -quick size with a seed other
// than the default: both daemons booted, every correctness check live.
func TestQuickSmoke(t *testing.T) {
	e := quickEnv(t)
	for _, def := range workloads {
		r, err := runWorkload(def, e)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", def.name, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		got, err := contractMetrics(def, r)
		if err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
		for _, role := range roles {
			if v := got[role.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", def.name, role.Name, v)
			}
		}
	}
}

// TestBrokenCheckFailsTheRun gives the origin workload a wrong expected
// body length: the run must count failed operations and exit non-zero.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	e := quickEnv(t)
	def := *findWorkload(wlOrigin)
	setup := def.setup
	def.name = "origin-wrong-length"
	def.setup = func(e *env) (instance, error) {
		inst, err := setup(e)
		if err == nil {
			for i := range inst.(*originRun).g.sizes {
				inst.(*originRun).g.sizes[i]++
			}
		}
		return inst, err
	}
	r, err := runWorkload(&def, e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Errorf("wrong body lengths went unnoticed: correct=%v failed=%d", r.Correct, r.Failed)
	}
	workloads = append(workloads, &def)
	defer func() { workloads = workloads[:len(workloads)-1] }()
	if code := cmdRun([]string{"-workload", def.name, "-quick", "-seconds", "1"}, 0); code == 0 {
		t.Error("a run with failed checks exited 0")
	}
}
