package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"bba/internal/abtest"
	"bba/internal/faults"
	"bba/internal/metrics"
	"bba/internal/stats"
)

// twoGroups keeps the test campaigns cheap while still exercising the
// paired multi-arm path.
func twoGroups() []abtest.Group {
	std := abtest.StandardGroups()
	return []abtest.Group{std[0], std[2]} // Control, BBA-0
}

func testConfig(sessions int) Config {
	fc := faults.DefaultScheduleConfig()
	return Config{
		Seed:        41,
		FaultSeed:   7,
		Faults:      &fc,
		Sessions:    sessions,
		ShardSize:   8,
		CatalogSize: 4,
		SketchSize:  64,
		Groups:      twoGroups(),
	}
}

func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	if r == nil {
		t.Fatal("nil report")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardingDeterminism pins the campaign's central contract: the same
// identity produces byte-identical reports at any worker count. (At any
// fleet size too: internal/coord's end-to-end tests hold that.)
func TestShardingDeterminism(t *testing.T) {
	cfg := testConfig(52) // 7 shards, last one partial

	cfg.Parallelism = 1
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Report)

	cfg.Parallelism = 4
	wide, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, wide.Report), want) {
		t.Error("4-worker report differs from single-worker report")
	}
}

// TestBatchReportByteIdentical pins the batch kernel's campaign contract:
// Config.Batch must produce byte-identical reports to scalar execution at
// any worker count — here 1 and 8 workers, under fault weather, with a
// non-default kernel width so the lane scheduler is genuinely exercised.
func TestBatchReportByteIdentical(t *testing.T) {
	cfg := testConfig(52) // 7 shards, last one partial
	cfg.Parallelism = 1
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Report)

	for _, par := range []int{1, 8} {
		bcfg := cfg
		bcfg.Batch = true
		bcfg.BatchWidth = 3
		bcfg.Parallelism = par
		var last Progress
		bcfg.Progress = func(p Progress) { last = p }
		out, err := Run(bcfg)
		if err != nil {
			t.Fatalf("batch run (%d workers): %v", par, err)
		}
		if !bytes.Equal(reportBytes(t, out.Report), want) {
			t.Errorf("batch report at %d workers differs from scalar report", par)
		}
		// Progress throughput counts kernel-retired sessions.
		if last.SessionsPerSec <= 0 {
			t.Errorf("batch run (%d workers): SessionsPerSec %v, want > 0", par, last.SessionsPerSec)
		}
		if last.SessionsDone != int64(cfg.Sessions) {
			t.Errorf("batch run (%d workers): SessionsDone %d, want %d", par, last.SessionsDone, cfg.Sessions)
		}
	}
}

// TestResumeNoDoubleCounting kills a campaign mid-run, resumes from its
// checkpoint, and requires the final report to be byte-identical to an
// uninterrupted run — shards are atomic, so nothing is lost or counted
// twice.
func TestResumeNoDoubleCounting(t *testing.T) {
	// 12 shards against a merge window of 4: whatever the scheduler does,
	// at most 3 folded + 4 dispatched shards can be recorded by the time the
	// kill lands, so the checkpoint is always a strict subset.
	cfg := testConfig(96)
	shards := cfg.Sessions / cfg.ShardSize
	cfg.Parallelism = 2
	cfg.CheckpointEvery = 1

	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Report)

	path := filepath.Join(t.TempDir(), "cp.json")
	ctx, cancel := context.WithCancel(context.Background())
	kcfg := cfg
	kcfg.CheckpointPath = path
	var done atomic.Int32
	kcfg.Progress = func(p Progress) {
		if done.Add(1) == 3 { // kill after the third completed shard
			cancel()
		}
	}
	out, err := RunContext(ctx, kcfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if out == nil || out.Checkpoint == nil {
		t.Fatal("cancelled run returned no checkpoint")
	}
	if out.Report != nil {
		t.Error("cancelled run produced a final report")
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got := cp.CompletedShards()
	if got == 0 || got >= shards {
		t.Fatalf("checkpoint recorded %d shards; want a strict mid-run subset", got)
	}

	// A truncated report is available, and marked as such.
	trunc, err := TruncatedReport(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !trunc.Truncated {
		t.Error("partial report not marked truncated")
	}
	if trunc.Sessions != cp.SessionsDone() {
		t.Errorf("truncated report covers %d sessions, checkpoint %d", trunc.Sessions, cp.SessionsDone())
	}

	rcfg := cfg
	rcfg.Resume = cp
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsRun+got != shards {
		t.Errorf("resume ran %d shards on top of %d recorded, want %d total", res.Stats.ShardsRun, got, shards)
	}
	if !bytes.Equal(reportBytes(t, res.Report), want) {
		t.Error("resumed report differs from uninterrupted report")
	}
}

// TestResumeRejectsForeignCheckpoint pins the identity guard: a checkpoint
// from a different campaign must not resume.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	cfg := testConfig(16)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	other.Resume = out.Checkpoint
	if _, err := Run(other); err == nil {
		t.Error("resume with mismatched identity succeeded")
	}
}

// TestMemoryCeiling pins the constant-memory design: out-of-order shard
// retention stays within the merge window, and the serialized campaign
// state does not grow with session count once the sketches saturate.
func TestMemoryCeiling(t *testing.T) {
	small := testConfig(64)
	small.Faults = nil
	small.Parallelism = 4
	big := small
	big.Sessions = 4 * small.Sessions

	sizeOf := func(cfg Config) (int, RunStats) {
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cp.json")
		if err := out.Checkpoint.Save(path); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if !cp.Complete() {
			t.Fatal("round-tripped checkpoint not complete")
		}
		data, err := json.Marshal(out.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return len(data), out.Stats
	}
	sSize, sStats := sizeOf(small)
	bSize, bStats := sizeOf(big)

	for _, st := range []RunStats{sStats, bStats} {
		if limit := 2 * st.Parallelism; st.PeakPending > limit {
			t.Errorf("PeakPending %d exceeds merge window %d", st.PeakPending, limit)
		}
	}
	// 4× the sessions must not grow the serialized state materially: the
	// sketches are fixed-size and everything else is O(groups).
	if float64(bSize) > 1.25*float64(sSize) {
		t.Errorf("checkpoint grew with session count: %d bytes at N=%d vs %d bytes at N=%d",
			bSize, big.Sessions, sSize, small.Sessions)
	}
}

// TestProgress checks the per-shard progress stream: monotone session
// counts, one snapshot per shard, and live group deltas for every arm.
func TestProgress(t *testing.T) {
	cfg := testConfig(24) // 3 shards
	cfg.Faults = nil
	cfg.Parallelism = 2
	var snaps []Progress
	cfg.Progress = func(p Progress) { snaps = append(snaps, p) }

	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d progress snapshots, want 3", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.SessionsDone != int64(cfg.Sessions) || last.SessionsTotal != int64(cfg.Sessions) {
		t.Errorf("final progress %d/%d, want %d/%d", last.SessionsDone, last.SessionsTotal, cfg.Sessions, cfg.Sessions)
	}
	if last.ShardsDone != 3 || last.ShardsTotal != 3 {
		t.Errorf("final progress shards %d/%d, want 3/3", last.ShardsDone, last.ShardsTotal)
	}
	if len(last.Groups) != 2 || last.Groups[0].Sessions != int64(cfg.Sessions) {
		t.Errorf("live group deltas incomplete: %+v", last.Groups)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].SessionsDone <= snaps[i-1].SessionsDone {
			t.Error("progress SessionsDone not monotone")
		}
	}
	if out.Report == nil || out.Report.Truncated {
		t.Error("complete run did not produce a final untruncated report")
	}
}

// TestLiveViewMatchesAccumFold holds the progress view to what it replaced:
// whole GroupAccums folded with Merge in completion order. Shards of random
// sessions arrive in a shuffled order; after each one, every GroupDelta
// must equal the one read off the full fold, bit for bit.
func TestLiveViewMatchesAccumFold(t *testing.T) {
	names := []string{"Control", "BBA-0", "BBA-2"}
	rng := rand.New(rand.NewSource(3))
	shards := make([][]*GroupAccum, 12)
	key := uint64(0)
	for s := range shards {
		shards[s] = NewGroupAccums(names, 16)
		for n := rng.Intn(40); n > 0; n-- {
			for _, a := range shards[s] {
				ms := metrics.Session{PlayHours: rng.Float64(), Rebuffers: rng.Intn(3), AvgRateKbps: 3000 * rng.Float64()}
				if err := a.AddSession(key, ms); err != nil {
					t.Fatal(err)
				}
				key++
			}
		}
	}
	full := NewGroupAccums(names, 16)
	live := make([]liveGroup, len(names))
	for _, s := range rng.Perm(len(shards)) {
		for gi, a := range shards[s] {
			live[gi].add(a)
			if err := full[gi].Merge(a); err != nil {
				t.Fatal(err)
			}
		}
		got := progressSnapshot(RunStats{}, 0, 0, 0, 0, Identity{Groups: names}, live).Groups
		var control float64
		for gi, a := range full {
			want := GroupDelta{Name: a.Name, Sessions: a.Sessions, RebufferRate: a.RebufferRate.Moments.Mean, AvgRateKbps: a.AvgRate.Moments.Mean}
			if gi == 0 {
				control = want.RebufferRate
			}
			if control > 0 {
				want.VsControl = want.RebufferRate / control
			}
			if got[gi] != want {
				t.Fatalf("after shard %d, group %s: live view %+v, full fold %+v", s, a.Name, got[gi], want)
			}
		}
	}
}

// TestCheckpointRejects corrupts one field of a good saved checkpoint per
// case: LoadCheckpoint must refuse each, naming what failed, before a
// resume or a report reads it.
func TestCheckpointRejects(t *testing.T) {
	cfg := testConfig(32) // 4 shards
	id := cfg.Identity()
	cp := NewCheckpoint(id)
	for _, s := range []int{0, 2} { // prefix = shard 0, done = [shard 2]
		if err := cp.Record(s, NewGroupAccums(id.Groups, id.SketchSize)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := cp.Save(good); err != nil {
		t.Fatal(err)
	}
	if c, err := LoadCheckpoint(good); err != nil {
		t.Fatalf("the good checkpoint: %v", err)
	} else if _, err := TruncatedReport(c); err != nil {
		t.Fatalf("the good checkpoint's report: %v", err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, want string
		corrupt    func(m map[string]any)
	}{
		{"schema", "schema", func(m map[string]any) { m["schema"] = "bba-campaign-checkpoint/v0" }},
		{"zero shards", "no shards", func(m map[string]any) { m["identity"].(map[string]any)["sessions"] = 0 }},
		{"layout", "unknown layout", func(m map[string]any) { m["identity"].(map[string]any)["layout"] = "sideways" }},
		{"prefix group count", "prefix has 1 groups, identity 2", func(m map[string]any) { m["prefix"] = m["prefix"].([]any)[:1] }},
		{"null prefix group", "prefix group 0 is null", func(m map[string]any) { m["prefix"].([]any)[0] = nil }},
		{"renamed prefix group", `prefix group 0 is "Imposter", identity "Control"`, func(m map[string]any) {
			m["prefix"].([]any)[0].(map[string]any)["name"] = "Imposter"
		}},
		{"null done group", "shard 2 group 1 is null", func(m map[string]any) { doneAt(m, 0)["groups"].([]any)[1] = nil }},
		{"renamed done group", `shard 2 group 1 is "Control", identity "BBA-0"`, func(m map[string]any) {
			doneAt(m, 0)["groups"].([]any)[1].(map[string]any)["name"] = "Control"
		}},
		{"shard out of order", "shard 0 out of order or duplicated", func(m map[string]any) { doneAt(m, 0)["shard"] = 0 }},
		{"shard duplicated", "shard 2 out of order or duplicated", func(m map[string]any) { m["done"] = append(m["done"].([]any), doneAt(m, 0)) }},
		{"shard beyond the campaign", "shard 4 beyond campaign's 4 shards", func(m map[string]any) { doneAt(m, 0)["shard"] = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			assertRefused(t, dir, data, tc.want)
		})
	}
	t.Run("truncated JSON", func(t *testing.T) {
		assertRefused(t, dir, raw[:len(raw)/2], "parse checkpoint")
	})
}

// TestCheckpointRefusesInexactSketches: a checkpoint folds only sketches
// it can merge exactly. After one good shard, shard 1 comes with one
// sketch breaking one rule per case — another K than the identity's (a
// K = 1 sketch would pass its one retained sample off as the bottom k of
// the union), more entries than K, hashes not strictly ascending, fewer
// samples seen than held. Record refuses each and leaves the checkpoint
// as it was; LoadCheckpoint refuses a file holding it as a parked shard
// or in the prefix.
func TestCheckpointRefusesInexactSketches(t *testing.T) {
	cfg := testConfig(32) // 4 shards
	id := cfg.Identity()
	r, err := NewShardRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]*GroupAccum, 2)
	for s := range shards {
		if shards[s], err = r.RunShard(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	cp := NewCheckpoint(id)
	if err := cp.Record(0, shards[0]); err != nil {
		t.Fatalf("the good shard: %v", err)
	}
	if err := cp.checkGroups(1, shards[1]); err != nil {
		t.Fatalf("shard 1 before its corruption: %v", err)
	}
	before, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		corrupt    func(q *stats.QuantileSketch)
	}{
		{"K below the identity", "sketch K 1, identity 64", func(q *stats.QuantileSketch) {
			q.K, q.Entries = 1, q.Entries[:1]
		}},
		{"K above the identity", "sketch K 128, identity 64", func(q *stats.QuantileSketch) { q.K = 128 }},
		{"more entries than K", "sketch holds 65 entries, K 64", func(q *stats.QuantileSketch) {
			for h := q.Entries[len(q.Entries)-1].Hash + 1; len(q.Entries) <= q.K; h++ {
				q.Entries = append(q.Entries, stats.SketchEntry{Hash: h})
			}
			q.Seen = int64(len(q.Entries))
		}},
		{"hashes out of order", "sketch hashes not strictly ascending at entry 1", func(q *stats.QuantileSketch) {
			q.Entries[0], q.Entries[1] = q.Entries[1], q.Entries[0]
		}},
		{"hash repeated", "sketch hashes not strictly ascending at entry 1", func(q *stats.QuantileSketch) { q.Entries[1].Hash = q.Entries[0].Hash }},
		{"seen below entries", "sketch saw 7 samples but holds 8", func(q *stats.QuantileSketch) { q.Seen = int64(len(q.Entries)) - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := cloneAccums(shards[1])
			q := &bad[1].AvgRate.Sketch
			if len(q.Entries) != 8 || q.Seen != 8 {
				t.Fatalf("shard 1's avg-rate sketch holds %d of %d samples, want 8 of 8", len(q.Entries), q.Seen)
			}
			tc.corrupt(q)
			want := `shard 1 group "BBA-0" avg_rate_kbps: ` + tc.want
			if err := cp.Record(1, bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Record = %v, want an error naming %q", err, want)
			}
			if after, err := json.Marshal(cp); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(after, before) {
				t.Fatal("a refused Record changed the checkpoint")
			}

			parked := *cp
			parked.Done = []ShardAccums{{Shard: 1, Groups: bad}}
			data, err := json.Marshal(&parked)
			if err != nil {
				t.Fatal(err)
			}
			assertRefused(t, dir, data, want)
			prefix := *cp
			prefix.Prefix = bad
			if data, err = json.Marshal(&prefix); err != nil {
				t.Fatal(err)
			}
			assertRefused(t, dir, data, `prefix group "BBA-0" avg_rate_kbps: `+tc.want)
		})
	}
}

// TestRecordRefusesAnotherShardsSessions: a shard whose accumulators are
// another recorded shard's — posted under the wrong index — shares every
// sketch hash with it. Record refuses it whether that shard is in the
// prefix or parked beyond it, and leaves the checkpoint byte-unchanged,
// so the shards that are still to come fold as if it had never arrived:
// accepted, a parked copy would fail the fold of the shard that made it
// contiguous.
func TestRecordRefusesAnotherShardsSessions(t *testing.T) {
	cfg := testConfig(32) // 4 shards
	id := cfg.Identity()
	r, err := NewShardRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]*GroupAccum, 3)
	for s := range shards {
		if shards[s], err = r.RunShard(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	cp := NewCheckpoint(id)
	for _, s := range []int{0, 2} { // prefix = shard 0, done = [shard 2]
		if err := cp.Record(s, cloneAccums(shards[s])); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{0, 2} {
		err := cp.Record(1, cloneAccums(shards[from]))
		if want := "shard 1 group \"Control\" rebuffer_rate: stats: sketches share hash"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("shard %d's accumulators as shard 1's: Record = %v, want an error naming %q", from, err, want)
		}
		if after, err := json.Marshal(cp); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(after, before) {
			t.Fatalf("refusing shard %d's accumulators as shard 1's changed the checkpoint", from)
		}
	}
	if err := cp.Record(1, cloneAccums(shards[1])); err != nil {
		t.Fatalf("shard 1 after the refusals: %v", err)
	}
	if cp.PrefixShards != 3 || len(cp.Done) != 0 {
		t.Errorf("after shard 1: prefix of %d shards, %d parked; want 3 and 0", cp.PrefixShards, len(cp.Done))
	}
}

// doneAt returns the JSON object of a checkpoint's i-th parked shard.
func doneAt(m map[string]any, i int) map[string]any { return m["done"].([]any)[i].(map[string]any) }

// assertRefused saves data as a checkpoint file and requires LoadCheckpoint
// to refuse it with an error containing want.
func assertRefused(t *testing.T, dir string, data []byte, want string) {
	t.Helper()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCheckpoint(path)
	if err == nil {
		t.Fatalf("LoadCheckpoint accepted the corrupt checkpoint (%d groups in its prefix)", len(c.Prefix))
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadCheckpoint = %v, want an error naming %q", err, want)
	}
}
