package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bba/internal/faults"
	"bba/internal/metrics"
)

// TestAccumSetsBoundedByWindow holds Run to the merge window's set budget:
// at most 2×Parallelism shard accumulator sets, one per window token —
// shard 0's recycled like the others, the prefix seeded apart — however
// many shards the campaign has, and the same report as ever.
func TestAccumSetsBoundedByWindow(t *testing.T) {
	cfg := testConfig(160) // 20 shards
	cfg.Parallelism = 1
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Report)
	for _, par := range []int{1, 2, 4} {
		cfg.Parallelism = par
		var sets accumSets
		out, err := run(context.Background(), cfg, &sets)
		if err != nil {
			t.Fatal(err)
		}
		if limit := 2 * par; sets.built > limit {
			t.Errorf("parallelism %d: %d accumulator sets built for %d shards, budget %d", par, sets.built, out.Stats.ShardsRun, limit)
		}
		if !bytes.Equal(reportBytes(t, out.Report), want) {
			t.Errorf("parallelism %d: report differs from the single-worker report", par)
		}
	}
}

// startedExtra calls started with each shard as its first draw runs, on
// the worker running it.
type startedExtra struct {
	shardSize int
	started   func(shard int)
}

func (e *startedExtra) AddSessionSet(global int64, _ []metrics.Session) error {
	if global%int64(e.shardSize) == 0 {
		e.started(int(global) / e.shardSize)
	}
	return nil
}

func (e *startedExtra) Merge(Extra) error { return nil }

// TestAccumSetsIndependentOfSchedule: how many shard sets a run builds is
// a function of the shards it runs, min(window, shards), not of whether
// the collector folded shard s before the worker asked for shard s+1's
// set — which, left to the scheduler, goes either way. One worker, a
// window of two, five shards. The count is read as shard 0's first draw
// runs, before any shard has folded, and after the run, under two
// schedules: one left to the scheduler, and one whose progress hook parks
// the collector, as it reports shard s−1 folded, until the worker has
// begun shard s+1, so every ask comes before the fold of the shard before
// it. All four readings must be the same.
func TestAccumSetsIndependentOfSchedule(t *testing.T) {
	cfg := testConfig(40) // 5 shards
	cfg.Parallelism = 1
	const shards, want = 5, 2
	for _, parked := range []bool{false, true} {
		var sets accumSets
		var atFirst int
		started := make(chan int, shards)
		cfg.NewExtra = func() Extra {
			return &startedExtra{shardSize: cfg.ShardSize, started: func(s int) {
				if s == 0 {
					sets.mu.Lock()
					atFirst = sets.built
					sets.mu.Unlock()
				}
				started <- s
			}}
		}
		cfg.Progress = nil
		if parked {
			begun := -1
			cfg.Progress = func(p Progress) {
				for begun < min(p.ShardsDone+1, shards-1) {
					begun = <-started
				}
			}
		}
		if _, err := run(context.Background(), cfg, &sets); err != nil {
			t.Fatal(err)
		}
		if atFirst != want || sets.built != want {
			t.Errorf("parked collector %v: %d shard sets built as shard 0 began, %d by the end; want %d both times",
				parked, atFirst, sets.built, want)
		}
	}
}

// randomSessions draws sessions that leave some distributions empty: no
// play time, steady state not reached, no startup chunks.
func randomSessions(rng *rand.Rand, n int) []metrics.Session {
	ms := make([]metrics.Session, n)
	for i := range ms {
		ms[i] = metrics.Session{
			Rebuffers:   rng.Intn(3),
			Switches:    rng.Intn(9),
			AvgRateKbps: 3000 * rng.Float64(),
			QoE:         rng.NormFloat64(),
		}
		if rng.Intn(4) > 0 {
			ms[i].PlayHours = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			ms[i].SteadyReached, ms[i].SteadyRateKbps = true, 4000*rng.Float64()
		}
		if rng.Intn(2) == 0 {
			ms[i].StartupRateKbps = 1000 * rng.Float64()
		}
	}
	return ms
}

// TestResetSetEncodesAsFresh: a recycled set, reset in place after taking
// N sessions, is the set a fresh one becomes after the same N — down to
// the JSON a checkpoint stores, where a sketch that took no sample encodes
// "entries": [] — and it kept its sketches' arrays. The recycled set was
// built to another sketch size, as a parked set decoded from a resumed
// checkpoint file may be: a reset set takes its K from the run's identity,
// never from the set it recycles.
func TestResetSetEncodesAsFresh(t *testing.T) {
	id := Identity{Groups: []string{"Control", "BBA-2"}, SketchSize: 16, ShardSize: 64}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 40} {
		var sets accumSets
		used := NewGroupAccums(id.Groups, 4)
		for i, s := range randomSessions(rng, 64) {
			for _, a := range used {
				if err := a.AddSession(uint64(i), s); err != nil {
					t.Fatal(err)
				}
			}
		}
		sets.put(used)
		reset, fresh := sets.get(id), newShardSet(id)
		if reset[0] != used[0] || sets.built != 0 {
			t.Fatalf("get built a set (%d built) with one free", sets.built)
		}
		if cap(reset[0].AvgRate.Sketch.Entries) == 0 {
			t.Error("reset dropped a sketch's array")
		}
		for i, s := range randomSessions(rng, n) {
			for gi := range id.Groups {
				if err := reset[gi].AddSession(uint64(1000+i), s); err != nil {
					t.Fatal(err)
				}
				if err := fresh[gi].AddSession(uint64(1000+i), s); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := json.Marshal(reset)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d sessions: reset set encodes\n%s\nfresh set\n%s", n, got, want)
		}
		if n == 0 && !bytes.Contains(got, []byte(`"entries":[]`)) {
			t.Errorf("%d sessions: no empty sketch in %s; the case is not exercised", n, got)
		}
	}
}

// holdingExtra parks a shard's worker on its first draw until the shard's
// channel closes, which orders shard completions for a test.
type holdingExtra struct {
	ctx       context.Context
	shardSize int
	hold      map[int]chan struct{}
}

func (h *holdingExtra) AddSessionSet(global int64, _ []metrics.Session) error {
	if global%int64(h.shardSize) == 0 {
		if ch, ok := h.hold[int(global)/h.shardSize]; ok {
			select {
			case <-ch:
			case <-h.ctx.Done():
			}
		}
	}
	return nil
}

func (h *holdingExtra) Merge(Extra) error { return nil }

// TestMidRunCheckpointMatchesFreshSets saves a checkpoint while recycled
// sets sit parked in Done and holds it to the bytes the same shards
// recorded from fresh sets give — what the coordinator's fold, and Run
// before sets were recycled, write. Two workers, a merge window of four:
// shard 0 is held until shards 1–3 complete, then shard 4 (on a recycled
// set) until shards 5–7 complete on recycled sets, so the save after the
// seventh completion holds prefix [0,4) and parked shards 5, 6 and 7.
func TestMidRunCheckpointMatchesFreshSets(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// One-session shards of short sessions: some reach steady state and
	// some do not, so a recycled set's steady-rate sketch can end a shard
	// empty.
	cfg := testConfig(10)
	cfg.ShardSize = 1
	cfg.Population.MeanWatch = 3 * time.Minute
	cfg.Parallelism = 2
	cfg.CheckpointEvery = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "cp.json")
	hold := map[int]chan struct{}{0: make(chan struct{}), 4: make(chan struct{})}
	cfg.NewExtra = func() Extra { return &holdingExtra{ctx: ctx, shardSize: cfg.ShardSize, hold: hold} }
	var saved []byte
	var readErr error
	cfg.Progress = func(p Progress) {
		switch p.ShardsDone {
		case 3:
			close(hold[0])
		case 7:
			close(hold[4])
		case 8: // the file still holds the save that followed the seventh
			saved, readErr = os.ReadFile(cfg.CheckpointPath)
		}
	}
	if _, err := RunContext(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	var mid Checkpoint
	if err := json.Unmarshal(saved, &mid); err != nil {
		t.Fatal(err)
	}
	var parked []int
	for _, d := range mid.Done {
		parked = append(parked, d.Shard)
	}
	if mid.PrefixShards != 4 || fmt.Sprint(parked) != "[5 6 7]" {
		t.Fatalf("mid-run checkpoint holds prefix %d and parked %v, want 4 and [5 6 7]", mid.PrefixShards, parked)
	}

	cfg.NewExtra, cfg.Progress, cfg.CheckpointPath = nil, nil, ""
	r, err := NewShardRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewCheckpoint(cfg.Identity())
	for _, s := range []int{0, 1, 2, 3, 5, 6, 7} {
		accums, err := r.RunShard(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Record(s, accums); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	emptied := false
	for _, d := range ref.Done {
		for _, g := range d.Groups {
			for _, dist := range g.dists() {
				emptied = emptied || len(dist.Sketch.Entries) == 0
			}
		}
	}
	if !emptied {
		t.Fatal("no parked shard left a sketch empty; the encoding of an empty recycled sketch is not exercised")
	}
	if !bytes.Equal(saved, want) {
		t.Errorf("a mid-run checkpoint with recycled sets parked differs from the same shards recorded from fresh sets:\n%s\nwant\n%s", saved, want)
	}
}

// TestTruncatedReportWithoutPrefix: a checkpoint whose only shards are
// parked beyond an empty prefix still reports every group, with the parked
// shards' sessions, and leaves the checkpoint untouched.
func TestTruncatedReportWithoutPrefix(t *testing.T) {
	cfg := testConfig(24) // 3 shards
	r, err := NewShardRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCheckpoint(cfg.Identity())
	for _, s := range []int{1, 2} {
		accums, err := r.RunShard(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Record(s, accums); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TruncatedReport(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != len(cfg.Groups) {
		t.Fatalf("truncated report has %d groups, want %d", len(rep.Groups), len(cfg.Groups))
	}
	for _, g := range rep.Groups {
		if g.Sessions != 16 {
			t.Errorf("group %s reports %d sessions, the parked shards hold 16", g.Name, g.Sessions)
		}
	}
	if after, _ := json.Marshal(cp); !bytes.Equal(after, before) {
		t.Error("building the report changed the checkpoint")
	}
}

// TestConcurrentRunsShareCatalog runs campaigns of one identity and of
// another seed at once: they build and share the process's catalogs
// concurrently (run it under -race), and each identity reports the same
// bytes every time.
func TestConcurrentRunsShareCatalog(t *testing.T) {
	cfgs := []Config{testConfig(16), testConfig(16)}
	cfgs[1].Seed++
	reports := make([][][]byte, len(cfgs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := Run(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := out.Report.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				reports[i] = append(reports[i], buf.Bytes())
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	for i, rs := range reports {
		for _, r := range rs[1:] {
			if !bytes.Equal(r, rs[0]) {
				t.Errorf("seed %d: concurrent runs reported different bytes", cfgs[i].Seed)
			}
		}
	}
	if len(reports[0]) > 0 && len(reports[1]) > 0 && bytes.Equal(reports[0][0], reports[1][0]) {
		t.Error("two seeds reported the same bytes")
	}
}

// TestBatchWidthOracle is the kernel-width contract over random campaign
// identities — seed, sessions, shard size, catalog size, with and without
// fault weather — at two workers, so accumulator sets recycle on both
// engines: a width-8 batch.Runner and a width-1 one must report the same
// bytes.
func TestBatchWidthOracle(t *testing.T) {
	fc := faults.DefaultScheduleConfig()
	rng := rand.New(rand.NewSource(30))
	cases := 8
	if testing.Short() {
		cases = 3
	}
	for i := 0; i < cases; i++ {
		cfg := Config{
			Seed:        rng.Int63(),
			Sessions:    10 + rng.Intn(70),
			ShardSize:   2 + rng.Intn(15),
			CatalogSize: 1 + rng.Intn(6),
			SketchSize:  32,
			Groups:      twoGroups(),
			Parallelism: 2,
		}
		if rng.Intn(2) == 0 {
			cfg.Faults, cfg.FaultSeed = &fc, rng.Int63()
		}
		t.Run(fmt.Sprintf("seed=%d/sessions=%d/shard=%d/titles=%d/faults=%v", cfg.Seed, cfg.Sessions, cfg.ShardSize, cfg.CatalogSize, cfg.Faults != nil), func(t *testing.T) {
			scalar, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wide := cfg
			wide.Batch, wide.BatchWidth = true, 8
			batch, err := Run(wide)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reportBytes(t, batch.Report), reportBytes(t, scalar.Report)) {
				t.Error("width 8 and width 1 report different bytes")
			}
		})
	}
}
