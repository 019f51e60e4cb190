package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bba/internal/campaign"
)

// testSpec is a cheap two-arm campaign under fault weather — the same
// shape the campaign package's own determinism tests use.
func testSpec(sessions int) Spec {
	return Spec{
		Seed:        41,
		FaultSeed:   7,
		Faults:      true,
		Sessions:    sessions,
		ShardSize:   8,
		CatalogSize: 4,
		SketchSize:  64,
		Groups:      []string{"Control", "BBA-0"},
	}
}

// localReport runs the spec as a plain single-process campaign and returns
// the canonical report bytes every fleet topology must reproduce.
func localReport(t *testing.T, spec Spec) []byte {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 1
	out, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.Report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newRunner builds a ShardRunner for the spec.
func newRunner(t *testing.T, spec Spec) *campaign.ShardRunner {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	r, err := campaign.NewShardRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// complete executes shard s and delivers it to the coordinator.
func complete(t *testing.T, c *Coordinator, r *campaign.ShardRunner, worker string, lease uint64, s int) CompleteResponse {
	t.Helper()
	accums, err := r.RunShard(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Complete(CompleteRequest{Worker: worker, Lease: lease, Shard: s, Groups: accums})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLeaseExpiryReissue pins the liveness path: a worker that takes a
// lease and dies has its shards re-issued after the TTL — the counters see
// one expiry returning its three shards — and the final report is
// byte-identical to a local run.
func TestLeaseExpiryReissue(t *testing.T) {
	spec := testSpec(52) // 7 shards, last one partial
	want := localReport(t, spec)
	clock := newFakeClock()
	c, err := New(Config{
		Spec:        spec,
		LeaseShards: 3,
		LeaseTTL:    10 * time.Second,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(JoinRequest{Worker: "doomed"}); err != nil {
		t.Fatal(err)
	}

	// The doomed worker takes the first lease and is never heard from again.
	doomed, err := c.Acquire(LeaseRequest{Worker: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(doomed.Shards) != 3 || doomed.Shards[0] != 0 {
		t.Fatalf("first lease got shards %v, want [0 1 2]", doomed.Shards)
	}

	// Within the TTL its shards are NOT re-issued: the survivor gets the
	// next range instead.
	r := newRunner(t, spec)
	grant, err := c.Acquire(LeaseRequest{Worker: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Shards) == 0 || grant.Shards[0] == 0 {
		t.Fatalf("second lease got shards %v, want the next pending range", grant.Shards)
	}
	for _, s := range grant.Shards {
		complete(t, c, r, "survivor", grant.Lease, s)
	}

	// Past the TTL the doomed lease expires and its shards re-issue.
	clock.Advance(11 * time.Second)
	reissued := map[int]bool{}
	for {
		g, err := c.Acquire(LeaseRequest{Worker: "survivor"})
		if err != nil {
			t.Fatal(err)
		}
		if g.Complete {
			break
		}
		if len(g.Shards) == 0 {
			t.Fatal("coordinator had nothing to grant but campaign incomplete")
		}
		for _, s := range g.Shards {
			if s < 3 {
				reissued[s] = true
			}
			complete(t, c, r, "survivor", g.Lease, s)
		}
	}
	if len(reissued) != 3 {
		t.Errorf("re-issued shards %v, want all of the doomed lease's [0 1 2]", reissued)
	}

	if s := c.Stats(); s.LeasesExpired != 1 || s.ShardsReissued != 3 {
		t.Errorf("stats %+v, want 1 expiry re-issuing 3 shards", s)
	}

	got, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after expiry/re-issue differs from local run")
	}
}

// TestOldestLeaseAge pins the straggler gauge under the fake clock: the
// age of the oldest live lease counts from its grant, keeps growing across
// heartbeats, and falls back when that lease completes or expires.
func TestOldestLeaseAge(t *testing.T) {
	spec := testSpec(24) // 3 shards
	clock := newFakeClock()
	c, err := New(Config{Spec: spec, LeaseShards: 1, LeaseTTL: 10 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	age := func(want time.Duration, when string) {
		t.Helper()
		if got := c.Stats().OldestLeaseAge; got != want {
			t.Errorf("%s: OldestLeaseAge %v, want %v", when, got, want)
		}
	}
	age(0, "no lease")
	old, err := c.Acquire(LeaseRequest{Worker: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(4 * time.Second)
	age(4*time.Second, "held 4s")
	young, err := c.Acquire(LeaseRequest{Worker: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(4 * time.Second)
	if _, err := c.Heartbeat(HeartbeatRequest{Worker: "slow", Leases: []uint64{old.Lease}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(4 * time.Second)
	age(12*time.Second, "heartbeat does not reset the grant time")

	r := newRunner(t, spec)
	complete(t, c, r, "slow", old.Lease, old.Shards[0])
	age(8*time.Second, "oldest lease completed")

	clock.Advance(3 * time.Second) // young's TTL lapsed 1s ago
	c.Sweep()
	if s := c.Stats(); s.LeasesExpired != 1 || s.ActiveLeases != 0 {
		t.Fatalf("stats %+v, want the young lease expired and none live", s)
	}
	age(0, "remaining lease expired")

	regrant, err := c.Acquire(LeaseRequest{Worker: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if regrant.Shards[0] != young.Shards[0] {
		t.Fatalf("re-grant covers %v, want the expired %v", regrant.Shards, young.Shards)
	}
	clock.Advance(time.Second)
	age(time.Second, "re-granted lease counts from its own grant")
}

// TestDuplicateCompletionNoOp pins exactly-once folding: delivering the
// same shard twice (a retry, or a stolen shard's loser) is absorbed as a
// no-op via the checkpoint's identity guard, and the report still matches
// the local fold — no double-counted shards.
func TestDuplicateCompletionNoOp(t *testing.T) {
	spec := testSpec(24) // 3 shards
	want := localReport(t, spec)
	c, err := New(Config{Spec: spec, LeaseShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, spec)
	grant, err := c.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Shards) != 3 {
		t.Fatalf("got shards %v, want all 3", grant.Shards)
	}
	for _, s := range grant.Shards {
		if resp := complete(t, c, r, "w", grant.Lease, s); resp.Duplicate {
			t.Errorf("first delivery of shard %d marked duplicate", s)
		}
	}
	// Deliver shard 1 again, recomputed from scratch as a retrying worker
	// would after a lost ack.
	if resp := complete(t, c, r, "w", grant.Lease, 1); !resp.Duplicate {
		t.Error("second delivery of shard 1 not marked duplicate")
	}
	s := c.Stats()
	if s.Shards != 3 || s.ShardsDup != 1 {
		t.Errorf("stats %+v, want 3 folds and 1 duplicate", s)
	}
	got, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after duplicate delivery differs from local run")
	}
	if got2, _ := c.Report(); !bytes.Equal(got, got2) {
		t.Error("report not stable across calls")
	}
}

// TestCompleteRefusesUnfoldableBodies holds /complete to the checkpoint's
// group contract: a body the fold cannot take is answered 400 naming the
// fault before anything changes, so the shard stays leased, a good retry
// is no duplicate, and the report is a local run's.
func TestCompleteRefusesUnfoldableBodies(t *testing.T) {
	spec := testSpec(24) // 3 shards
	want := localReport(t, spec)
	c, err := New(Config{Spec: spec, LeaseShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, spec)
	run := func(s int) []*campaign.GroupAccum {
		accums, err := r.RunShard(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return accums
	}
	post := func(s int, groups []*campaign.GroupAccum) *httptest.ResponseRecorder {
		body, err := json.Marshal(CompleteRequest{Worker: "w", Lease: grant.Lease, Shard: s, Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/complete", bytes.NewReader(body)))
		return w
	}
	if w := post(0, run(0)); w.Code != http.StatusOK {
		t.Fatalf("good shard 0: %d %s", w.Code, w.Body)
	}
	good := run(1)
	renamed := *good[0]
	renamed.Name = "BBA-1"
	for _, tc := range []struct {
		name   string
		shard  int
		groups []*campaign.GroupAccum
		want   string
	}{
		{"null group", 1, []*campaign.GroupAccum{good[0], nil}, "shard 1 group 1 is null"},
		{"renamed group", 1, []*campaign.GroupAccum{&renamed, good[1]}, `shard 1 group 0 is "BBA-1", identity "Control"`},
		{"swapped groups", 1, []*campaign.GroupAccum{good[1], good[0]}, `shard 1 group 0 is "BBA-0", identity "Control"`},
		{"wrong group count", 1, good[:1], "shard 1 has 1 groups, identity 2"},
		{"shard out of range", 3, good, "shard 3 outside [0,3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := post(tc.shard, tc.groups)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
				t.Errorf("got %d %q, want 400 naming %q", w.Code, w.Body, tc.want)
			}
		})
	}
	for s, groups := range map[int][]*campaign.GroupAccum{1: good, 2: run(2)} {
		w := post(s, groups)
		var resp CompleteResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil || w.Code != http.StatusOK || resp.Duplicate {
			t.Fatalf("good shard %d after the refusals: %d %+v %v", s, w.Code, resp, err)
		}
	}
	if got, err := c.Report(); err != nil || !bytes.Equal(got, want) {
		t.Errorf("report after the refusals differs from a local run (err %v)", err)
	}
}

// TestPostBodies is the wire contract of the four POST endpoints: one good
// body each, then that body broken one way at a time, each answered with
// its own status before the coordinator acts on it. A body is exactly one
// JSON value: a second value or garbage after it is refused, not ignored.
// Unknown fields are accepted, so a worker and its coordinator may differ
// by a version.
func TestPostBodies(t *testing.T) {
	spec := testSpec(24) // 3 shards
	c, err := New(Config{Spec: spec, LeaseShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	accums, err := newRunner(t, spec).RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	completion, err := json.Marshal(CompleteRequest{Worker: "w", Lease: grant.Lease, Shard: 0, Groups: accums})
	if err != nil {
		t.Fatal(err)
	}
	// Every good body starts with the worker field, which the rows edit.
	goods := []struct{ path, body string }{
		{"/join", `{"worker":"w"}`},
		{"/lease", `{"worker":"w"}`},
		{"/heartbeat", fmt.Sprintf(`{"worker":"w","leases":[%d]}`, grant.Lease)},
		{"/complete", string(completion)},
	}
	oversized := `{"worker":"` + strings.Repeat("w", maxBody) + `"}`
	worker := func(v string) func(string) string {
		return func(good string) string { return strings.Replace(good, `"worker":"w"`, `"worker":`+v, 1) }
	}
	// Shard 1's completion with a sketch that retains one sample under the
	// identity's 64: the fold could not merge it exactly.
	accums1, err := newRunner(t, spec).RunShard(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := &accums1[0].AvgRate.Sketch
	q.K, q.Entries = 1, q.Entries[:1]
	coarseBody, err := json.Marshal(CompleteRequest{Worker: "w", Lease: grant.Lease, Shard: 1, Groups: accums1})
	if err != nil {
		t.Fatal(err)
	}
	coarse := func(string) string { return string(coarseBody) }
	// Shard 0's accumulators posted as shard 1's: every sketch shares its
	// hashes with the prefix shard 0 folded into.
	replayBody, err := json.Marshal(CompleteRequest{Worker: "w", Lease: grant.Lease, Shard: 1, Groups: accums})
	if err != nil {
		t.Fatal(err)
	}
	replay := func(string) string { return string(replayBody) }
	for _, tc := range []struct {
		name   string
		method string
		body   func(good string) string
		want   int
		only   string // the one path the row applies to, when set
	}{
		{"good", http.MethodPost, func(good string) string { return good }, http.StatusOK, ""},
		{"unknown field", http.MethodPost, worker(`"w","since":"v2"`), http.StatusOK, ""},
		{"trailing white space", http.MethodPost, func(good string) string { return good + " \n" }, http.StatusOK, ""},
		{"wrong method", http.MethodGet, func(good string) string { return good }, http.StatusMethodNotAllowed, ""},
		{"not JSON", http.MethodPost, func(string) string { return "worker=w" }, http.StatusBadRequest, ""},
		{"trailing value", http.MethodPost, func(good string) string { return good + `{"worker":"x"}` }, http.StatusBadRequest, ""},
		{"trailing garbage", http.MethodPost, func(good string) string { return good + " garbage" }, http.StatusBadRequest, ""},
		{"over maxBody", http.MethodPost, func(string) string { return oversized }, http.StatusBadRequest, ""},
		{"empty worker", http.MethodPost, worker(`""`), http.StatusBadRequest, ""},
		{"wrong field type", http.MethodPost, worker(`7`), http.StatusBadRequest, ""},
		{"coarser sketch", http.MethodPost, coarse, http.StatusBadRequest, "/complete"},
		{"another shard's body", http.MethodPost, replay, http.StatusBadRequest, "/complete"},
	} {
		for _, g := range goods {
			if tc.only != "" && tc.only != g.path {
				continue
			}
			t.Run(tc.name+g.path, func(t *testing.T) {
				before := checkpointBytes(t, c)
				w := httptest.NewRecorder()
				c.Handler().ServeHTTP(w, httptest.NewRequest(tc.method, g.path, strings.NewReader(tc.body(g.body))))
				if w.Code != tc.want {
					t.Errorf("%s %s: %d %q, want %d", tc.method, g.path, w.Code, strings.TrimSpace(w.Body.String()), tc.want)
				}
				// A refused body changes nothing of the fold.
				if w.Code != http.StatusOK && !bytes.Equal(checkpointBytes(t, c), before) {
					t.Errorf("%s %s: refused with %d, but the checkpoint changed", tc.method, g.path, w.Code)
				}
			})
		}
	}
	// The good completion folds shard 0; the two other accepted rows are
	// duplicates of it; no refused body reached the fold, and shard 1 —
	// refused with a coarse sketch and with shard 0's body — is still
	// leased for a good retry.
	if s := c.Stats(); s.Shards != 1 || s.ShardsDup != 2 {
		t.Errorf("after the table: %d shards folded and %d duplicates, want 1 and 2", s.Shards, s.ShardsDup)
	}
	if _, leased := c.leases[grant.Lease].remaining[1]; !leased || c.cp.Has(1) {
		t.Errorf("after the refused completion: shard 1 leased %v, recorded %v; want leased and not recorded", leased, c.cp.Has(1))
	}
}

// checkpointBytes is the coordinator's checkpoint as it would be saved.
func checkpointBytes(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := json.Marshal(c.cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkStealing pins the straggler path: when the pending pool drains,
// a fast worker is granted a stolen lease over another worker's remaining
// shards, first completion wins, and the report is unchanged.
func TestWorkStealing(t *testing.T) {
	spec := testSpec(40) // 5 shards
	want := localReport(t, spec)
	c, err := New(Config{Spec: spec, LeaseShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, spec)

	slow, err := c.Acquire(LeaseRequest{Worker: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Shards) != 5 {
		t.Fatalf("slow worker got %v, want all 5 shards", slow.Shards)
	}
	// The slow worker finishes two shards, then stalls.
	complete(t, c, r, "slow", slow.Lease, 0)
	complete(t, c, r, "slow", slow.Lease, 1)

	fast, err := c.Acquire(LeaseRequest{Worker: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Stolen {
		t.Fatalf("fast worker's grant not marked stolen: %+v", fast)
	}
	if len(fast.Shards) != 3 || fast.Shards[0] != 2 {
		t.Fatalf("stolen lease covers %v, want [2 3 4]", fast.Shards)
	}
	// A second thief finds nothing single-leased to steal.
	if g, _ := c.Acquire(LeaseRequest{Worker: "third"}); len(g.Shards) != 0 || g.Complete {
		t.Errorf("second thief got %+v, want empty non-complete grant", g)
	}

	// The race: fast completes 2 and 3; slow limps in with 2 (duplicate)
	// and 4 (still counts — leases are liveness, not correctness).
	complete(t, c, r, "fast", fast.Lease, 2)
	complete(t, c, r, "fast", fast.Lease, 3)
	if resp := complete(t, c, r, "slow", slow.Lease, 2); !resp.Duplicate {
		t.Error("slow worker's late shard 2 not marked duplicate")
	}
	if resp := complete(t, c, r, "slow", slow.Lease, 4); resp.Duplicate || !resp.Complete {
		t.Errorf("slow worker's shard 4: %+v, want fresh and campaign-completing", resp)
	}

	s := c.Stats()
	if s.LeasesStolen != 1 || s.Shards != 5 || s.ShardsDup != 1 {
		t.Errorf("stats %+v, want 1 steal, 5 folds, 1 duplicate", s)
	}
	got, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after work stealing differs from local run")
	}
}

// TestCoordinatorRestart pins crash-resume: a coordinator killed mid-run
// restarts from its checkpoint, leases only the missing shards, and the
// finished report is byte-identical to the local run.
func TestCoordinatorRestart(t *testing.T) {
	spec := testSpec(48) // 6 shards
	want := localReport(t, spec)
	path := filepath.Join(t.TempDir(), "coord.json")

	first, err := New(Config{Spec: spec, LeaseShards: 2, CheckpointPath: path, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, spec)
	grant, err := first.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range grant.Shards {
		complete(t, first, r, "w", grant.Lease, s)
	}
	// The coordinator "crashes" here; a new one resumes from disk.
	cp, err := campaign.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.CompletedShards() != 2 {
		t.Fatalf("checkpoint recorded %d shards, want 2", cp.CompletedShards())
	}

	second, err := New(Config{Spec: spec, LeaseShards: 8, Resume: cp, CheckpointPath: path, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := second.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Shards) != 4 || g2.Shards[0] != 2 {
		t.Fatalf("resumed coordinator leased %v, want the 4 missing shards from 2", g2.Shards)
	}
	for _, s := range g2.Shards {
		complete(t, second, r, "w", g2.Lease, s)
	}
	select {
	case <-second.Done():
	default:
		t.Fatal("resumed coordinator not complete after the missing shards")
	}
	got, err := second.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("restarted coordinator's report differs from local run")
	}

	// A checkpoint from a different campaign must not resume.
	other := testSpec(48)
	other.Seed++
	if _, err := New(Config{Spec: other, Resume: cp}); err == nil {
		t.Error("resume with mismatched identity succeeded")
	}
}

// TestHeartbeatExtendsLease pins the renewal path: heartbeats keep a lease
// alive past its nominal TTL, and a heartbeat for an expired lease reports
// it dropped.
func TestHeartbeatExtendsLease(t *testing.T) {
	spec := testSpec(16)
	clock := newFakeClock()
	c, err := New(Config{Spec: spec, LeaseShards: 1, LeaseTTL: 10 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		hb, err := c.Heartbeat(HeartbeatRequest{Worker: "w", Leases: []uint64{g.Lease}})
		if err != nil {
			t.Fatal(err)
		}
		if len(hb.Extended) != 1 {
			t.Fatalf("heartbeat %d did not extend the lease", i)
		}
	}
	// Another worker heartbeating someone else's lease must not extend it.
	if hb, _ := c.Heartbeat(HeartbeatRequest{Worker: "thief", Leases: []uint64{g.Lease}}); len(hb.Extended) != 0 {
		t.Error("foreign heartbeat extended the lease")
	}
	clock.Advance(11 * time.Second)
	hb, err := c.Heartbeat(HeartbeatRequest{Worker: "w", Leases: []uint64{g.Lease}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Extended) != 0 {
		t.Error("heartbeat extended an expired lease")
	}
	if s := c.Stats(); s.LeasesExpired != 1 {
		t.Errorf("stats %+v, want the lease expired", s)
	}
}
