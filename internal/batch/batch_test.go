package batch_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bba/internal/abtest"
	"bba/internal/batch"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
)

func testGroups(t *testing.T) []abtest.Group {
	t.Helper()
	// Span the algorithm families: the paired BBA arms the campaigns run,
	// a capacity-seeded estimator, and the registry rivals.
	gs, err := abtest.Groups("Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others", "BOLA", "Hybrid")
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func testCatalog(t *testing.T) *media.Catalog {
	t.Helper()
	c, err := media.NewCatalog(6, media.DefaultLadder(), 99)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testDraws produces n randomized paired draws: users from every diurnal
// window across several days, each with its own trace and fault seed.
func testDraws(t *testing.T, catalog *media.Catalog, n int, seed int64) []batch.Draw {
	t.Helper()
	draws := make([]batch.Draw, n)
	for off := range draws {
		rng := rand.New(rand.NewSource(seed + int64(off)))
		u := abtest.DrawUser(abtest.PopulationConfig{}, off%metrics.WindowsPerDay, off/metrics.WindowsPerDay, rng)
		draws[off] = batch.Draw{User: u, Video: u.Pick(catalog), Fseed: seed*1000 + int64(off)*7 + 1}
	}
	return draws
}

// scalarReference plays every draw through the scalar harness.
func scalarReference(t *testing.T, draws []batch.Draw, groups []abtest.Group, fcfg *faults.ScheduleConfig) [][]metrics.Session {
	t.Helper()
	want := make([][]metrics.Session, len(draws))
	for off, d := range draws {
		ms, err := abtest.PlayUser(context.Background(), d.User, d.Video, groups, fcfg, d.Fseed)
		if err != nil {
			t.Fatalf("scalar draw %d: %v", off, err)
		}
		want[off] = ms
	}
	return want
}

// runBatch executes the draws through a Runner and collects the folds.
func runBatch(t *testing.T, r *batch.Runner, draws []batch.Draw) [][]metrics.Session {
	t.Helper()
	got := make([][]metrics.Session, len(draws))
	drawNext, foldNext := 0, 0
	err := r.RunShard(context.Background(), len(draws),
		func(off int) (batch.Draw, error) {
			if off != drawNext {
				t.Errorf("draw called with off %d, want %d", off, drawNext)
			}
			drawNext++
			return draws[off], nil
		},
		func(off int, ms []metrics.Session) error {
			if off != foldNext {
				t.Errorf("fold called with off %d, want %d", off, foldNext)
			}
			foldNext++
			got[off] = append([]metrics.Session(nil), ms...)
			return nil
		})
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if foldNext != len(draws) {
		t.Fatalf("folded %d draws, want %d", foldNext, len(draws))
	}
	return got
}

// TestRunShardMatchesScalar is the kernel's equivalence quickcheck: over
// randomized (user, trace, fault-weather) draws, batch execution must
// reproduce the scalar harness's metrics.Session values exactly — every
// field, including the float metrics, compared with ==.
func TestRunShardMatchesScalar(t *testing.T) {
	groups := testGroups(t)
	catalog := testCatalog(t)
	fcfg := faults.DefaultScheduleConfig()
	cases := []struct {
		name  string
		fcfg  *faults.ScheduleConfig
		width int
		seed  int64
	}{
		{"clean_width1", nil, 1, 41},
		{"faults_width1", &fcfg, 1, 40}, // the campaign's scalar setting
		{"clean_width3", nil, 3, 42},
		{"faults_width5", &fcfg, 5, 43},
		{"faults_wider_than_shard", &fcfg, 64, 44},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 30
			draws := testDraws(t, catalog, n, tc.seed)
			want := scalarReference(t, draws, groups, tc.fcfg)

			retired := 0
			r := batch.NewRunner(batch.Config{
				Groups:   groups,
				Faults:   tc.fcfg,
				Width:    tc.width,
				OnRetire: func() { retired++ },
			})
			got := runBatch(t, r, draws)

			for off := range draws {
				for gi, g := range groups {
					if got[off][gi] != want[off][gi] {
						t.Errorf("draw %d group %s:\n batch  %+v\n scalar %+v", off, g.Name, got[off][gi], want[off][gi])
					}
				}
			}
			if want := n * len(groups); retired != want {
				t.Errorf("OnRetire fired %d times, want %d", retired, want)
			}
		})
	}
}

// TestRunnerReuseAcrossShards pins that a Runner's recycled lane arenas and
// shared plan cache carry no state between shards: the second shard of a
// reused Runner matches a fresh Runner's output exactly.
func TestRunnerReuseAcrossShards(t *testing.T) {
	groups := testGroups(t)
	catalog := testCatalog(t)
	fcfg := faults.DefaultScheduleConfig()
	first := testDraws(t, catalog, 12, 7)
	second := testDraws(t, catalog, 12, 8)

	reused := batch.NewRunner(batch.Config{Groups: groups, Faults: &fcfg, Width: 4})
	runBatch(t, reused, first)
	got := runBatch(t, reused, second)

	fresh := batch.NewRunner(batch.Config{Groups: groups, Faults: &fcfg, Width: 4})
	want := runBatch(t, fresh, second)

	for off := range second {
		for gi, g := range groups {
			if got[off][gi] != want[off][gi] {
				t.Errorf("draw %d group %s: reused Runner %+v, fresh Runner %+v", off, g.Name, got[off][gi], want[off][gi])
			}
		}
	}
}

// TestRunShardErrorRecovery checks that an aborted shard (draw error, fold
// error, cancelled context) leaves the Runner reusable and correct.
func TestRunShardErrorRecovery(t *testing.T) {
	groups := testGroups(t)
	catalog := testCatalog(t)
	draws := testDraws(t, catalog, 10, 21)
	boom := errors.New("boom")
	r := batch.NewRunner(batch.Config{Groups: groups, Width: 3})

	err := r.RunShard(context.Background(), len(draws),
		func(off int) (batch.Draw, error) {
			if off == 4 {
				return batch.Draw{}, boom
			}
			return draws[off], nil
		},
		func(int, []metrics.Session) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("draw error not propagated: %v", err)
	}

	err = r.RunShard(context.Background(), len(draws),
		func(off int) (batch.Draw, error) { return draws[off], nil },
		func(off int, _ []metrics.Session) error {
			if off == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("fold error not propagated: %v", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	err = r.RunShard(cancelled, len(draws),
		func(off int) (batch.Draw, error) { return draws[off], nil },
		func(int, []metrics.Session) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not propagated: %v", err)
	}

	// After all three aborts the Runner must still produce exact results.
	got := runBatch(t, r, draws)
	want := scalarReference(t, draws, groups, nil)
	for off := range draws {
		for gi, g := range groups {
			if got[off][gi] != want[off][gi] {
				t.Errorf("post-abort draw %d group %s: %+v, want %+v", off, g.Name, got[off][gi], want[off][gi])
			}
		}
	}
}
