package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/player"
	"bba/internal/stats"
	"bba/internal/trace"
)

// campaignAlloc returns the bytes one campaign.Run of cfg allocates
// (MemStats.TotalAlloc delta) and the player sessions it ran.
func campaignAlloc(t *testing.T, cfg Config) (bytes, sessions int64) {
	t.Helper()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&mem)
	return int64(mem.TotalAlloc - before), out.Stats.PlayerSessions
}

// warm runs cfg once, so its catalog is in the process-wide cache and
// every reservoir-plan page its sessions read is filled on the catalog's
// titles, as the benchmark's warm-up campaign and first repetition leave
// them: no measured run of cfg, or of a campaign whose draws are a prefix
// of cfg's, pays for either.
func warm(t *testing.T, cfg Config) {
	t.Helper()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAllocationBudget is the benchmark's bytes_per_op estimator —
// MemStats.TotalAlloc of a whole campaign.Run per player session, on one
// worker, the catalog and its reservoir plans already built — as a tier-1
// test. The plans (48 of them, ≈ 0.46 MB of tables) live on the catalog's
// titles, so a run builds none. The benchmark spreads what a run does
// build once over 24 576 sessions: the prefix's sketches seeded at K, the
// merge window's shard sets carved at min(K, ShardSize) (at most
// 2×Parallelism of them, recycled from shard to shard) and each draw
// slot's trace rows. A short campaign cannot, so the test takes two
// numbers from a three-shard and a five-shard campaign. The marginal cost
// is the difference per extra session, and its floor is nothing: a keyed
// draw hands out a User that holds its key by value, the draw slot packs
// the scratch's composition into rows of its own, rebuilt in place for
// every draw, and each arm's algorithm object is released when its
// session retires and handed to the next draw's session. At that floor
// the difference is set-up noise and may come out below zero, so the
// check is one-sided: a marginal cost at or below the budget passes,
// negative included. The set-up is the three-shard campaign's bytes less
// its sessions at the marginal cost clamped at 0 — an upper bound on it:
// the sketches and the kernel's own state, the slots' rows included.
// Fault weather adds nothing a draw keeps — each draw slot reshapes its
// rows and rebuilds its schedule and injector in place — so a faulted
// campaign stays within 8 B of the clean one. A trace or its header per
// draw, a session log, a plan rebuild, an RNG source, an intermediate
// trace, a fresh accumulator set per shard or an algorithm object per
// session creeping back into the shard path lands above the marginal
// budgets; a worker or a run building its own plans again, a sketch
// growing by doubling or the prefix adopting shard 0's set lands above
// the set-up budget.
func TestAllocationBudget(t *testing.T) {
	fc := faults.DefaultScheduleConfig()
	marginal := func(t *testing.T, batch bool, fcfg *faults.ScheduleConfig) (per, setup float64) {
		three := Config{Seed: 7, Sessions: 768, ShardSize: 256, Parallelism: 1, Batch: batch, Faults: fcfg, FaultSeed: 8}
		five := three
		five.Sessions = 1280
		warm(t, five)
		b3, s3 := campaignAlloc(t, three)
		b5, s5 := campaignAlloc(t, five)
		per = float64(b5-b3) / float64(s5-s3)
		setup = float64(b3) - float64(s3)*max(per, 0)
		t.Logf("faults=%v: %.1f B per player session (%.0f with a three-shard campaign's set-up of %.0f B)", fcfg != nil, per, float64(b3)/float64(s3), setup)
		return per, setup
	}
	// The floor measures ≈ 0 B on the scalar engine and ≈ 4 B on the
	// batch one, faulted the same. The deferred trace each keyed draw
	// handed out before its User held the key added ≈ 25 B (a 48-byte
	// header, its deferral and the key's closure, ≈ 152 B a draw); each
	// draw's trace rows ≈ 345 B more; a fresh algorithm object per session,
	// as before the kernel released them, ≈ 105 B; a fresh accumulator set
	// per shard ≈ 195 B: each lands above the budget. The set-up measures
	// ≈ 0.80 MB scalar and ≈ 1.03 MB batch, of which the eight slots' rows,
	// each grown to the longest trace it drew, are ≈ 45 KB; with each run
	// building its 48 plans again ≈ 1.26 MB and ≈ 1.51 MB, and with the
	// sketches grown by doubling and shard 0's set kept as the prefix it
	// was ≈ 2.3 MB.
	const cleanBudget, faultBudget, setupBudget = 16, 8, 1100 << 10
	clean := map[bool]float64{} // by engine: the faulted budgets build on it
	for _, tc := range []struct {
		name   string
		batch  bool
		faults *faults.ScheduleConfig
	}{
		{"clean_scalar", false, nil},
		{"clean_batch", true, nil},
		{"faulted_scalar", false, &fc},
		{"faulted_batch", true, &fc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults == nil {
				per, setup := marginal(t, tc.batch, nil)
				clean[tc.batch] = per
				if per > cleanBudget {
					t.Errorf("%.1f B allocated per player session, budget %d B", per, cleanBudget)
				}
				if setup > setupBudget {
					t.Errorf("a three-shard campaign's set-up allocated %.0f B, budget %d B", setup, setupBudget)
				}
				return
			}
			base, ok := clean[tc.batch]
			if !ok {
				base, _ = marginal(t, tc.batch, nil)
			}
			// Within faultBudget of the clean run, and so of cleanBudget.
			budget := min(max(base, 0), cleanBudget) + faultBudget
			if per, _ := marginal(t, tc.batch, tc.faults); per > budget {
				t.Errorf("%.1f B allocated per player session, budget %.1f (clean + %d B)", per, budget, faultBudget)
			}
		})
	}
}

// benchShape is the benchmark's campaign-scalar configuration: the paper's
// six arms over 24 titles, 4 096 paired draws in shards of 256.
func benchShape(parallelism int) Config {
	return Config{Seed: 7, Sessions: 4096, ShardSize: 256, Parallelism: parallelism}
}

// TestPlanFootprint pins what the campaign's plans cost and that nothing
// title-sized is per worker. A plan holds only what is keyed by
// (title, R_min, window) — a reservoir table, its page flags, two map
// endpoints — so building every plan the benchmark-shaped campaign touches
// stays under 600 KB (it measures ≈ 465 KB; a per-chunk deficit series
// alongside the table made it ≈ 907 KB, and each plan's own copy of the
// title's sizes and prefix sums 9.09 MB). The size index and the plans
// live on the title, so a second worker builds neither: the same campaign
// on two workers allocates at most the two shard sets the second worker's
// merge-window tokens build, computed from the campaign's shape, plus the
// second worker's own draw scratch and lanes (its trace Builder's two
// segment buffers, its draw slot's rows) more than on one. The second
// worker measures ≈ 0.45 MB against that ≈ 0.55 MB budget; a worker
// building its own set of plans again (≈ 0.92 MB, as before plans were
// shared on the title) or a title-sized copy per worker (≈ 5 MB for this
// catalog) fails it; a relative bound would not stay meaningful as the
// per-session bytes shrink.
func TestPlanFootprint(t *testing.T) {
	const planBudget, scratchBudget = 600 << 10, 256 << 10
	cfg := benchShape(1)
	cfg.applyDefaults()
	catalog, err := media.NewCatalog(cfg.CatalogSize, cfg.Ladder, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var sc abtest.Scratch
	streams := make([]abr.Stream, 0, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		u, video, _ := shardDraw(&cfg, catalog, &sc, i/cfg.ShardSize, i%cfg.ShardSize)
		streams = append(streams, abr.NewStream(video, u.Rmin))
	}
	plans := map[*abr.TitlePlan]bool{}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	cache := abr.NewPlanCache()
	for _, s := range streams {
		plans[cache.TitlePlan(s, 0)] = true
	}
	runtime.ReadMemStats(&mem)
	built := mem.TotalAlloc - before
	t.Logf("%d plans for %d draws: %d B", len(plans), len(streams), built)
	if len(plans) < cfg.CatalogSize {
		t.Errorf("only %d plans over a %d-title catalog; the draw no longer covers it", len(plans), cfg.CatalogSize)
	}
	if built > planBudget {
		t.Errorf("building the campaign's %d plans allocated %d B, budget %d B: a plan holds a reservoir table, not a copy of the title", len(plans), built, planBudget)
	}

	// A run builds min(2×Parallelism, shards) shard sets, so two workers
	// build two more than one. A set is its groups' accumulators, a
	// pointer to each, and six sketches per group carved at
	// min(K, shard size) entries that never grow.
	entries := int64(min(cfg.SketchSize, cfg.ShardSize))
	set := int64(len(cfg.Groups)) * (int64(unsafe.Sizeof(GroupAccum{})+unsafe.Sizeof(&GroupAccum{})) +
		int64(len(distNames))*entries*int64(unsafe.Sizeof(stats.SketchEntry{})))
	budget := 2*set + scratchBudget
	warm(t, benchShape(1))
	b1, s1 := campaignAlloc(t, benchShape(1))
	b2, s2 := campaignAlloc(t, benchShape(2))
	t.Logf("%.0f B per player session on one worker, %.0f on two; the second worker cost %d B", float64(b1)/float64(s1), float64(b2)/float64(s2), b2-b1)
	if b2 > b1+budget {
		t.Errorf("a second worker allocated %d B more than one (budget %d B: two %d B shard sets and %d B of draw scratch): plans or something else title-sized are being built per worker", b2-b1, budget, set, scratchBudget)
	}
}

// TestRetainedUsersReplayExactly is the retained-trace contract: every
// abtest.User a campaign hands to an arm factory — trace included — stays
// valid after the draw retires and the run returns. The users are captured
// exactly as bench/trace.go's capturingGroups does, then replayed through
// NewSessionEnv and fresh player.Sessions (the independent scalar path),
// and must fold to the byte-identical report. A scratch buffer backing a
// trace that escaped, or a kernel that strays from the player, fails here.
func TestRetainedUsersReplayExactly(t *testing.T) {
	fc := faults.DefaultScheduleConfig()
	for _, fcfg := range []*faults.ScheduleConfig{nil, &fc} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("faults=%v/batch=%v", fcfg != nil, batch), func(t *testing.T) {
				var users []abtest.User
				groups := abtest.StandardGroups()
				first := groups[0].New
				groups[0].New = func(u abtest.User) abr.Algorithm {
					users = append(users, u)
					return first(u)
				}
				cfg := Config{Seed: 11, Sessions: 150, ShardSize: 64, CatalogSize: 6, Parallelism: 1,
					Groups: groups, Batch: batch, Faults: fcfg, FaultSeed: 12}
				out, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := reportBytes(t, out.Report)
				if len(users) != cfg.Sessions {
					t.Fatalf("captured %d users, want %d", len(users), cfg.Sessions)
				}

				cfg.applyDefaults()
				catalog, err := media.NewCatalog(cfg.CatalogSize, cfg.Ladder, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				groups[0].New = first
				cp := NewCheckpoint(cfg.Identity())
				var accums []*GroupAccum
				for i, u := range users {
					shard, off := i/cfg.ShardSize, i%cfg.ShardSize
					if off == 0 {
						accums = NewGroupAccums(cfg.identity().Groups, cfg.SketchSize)
					}
					var fseed int64
					if fcfg != nil {
						fseed = shardFaultSeed(cfg.FaultSeed, shard, off)
					}
					env, err := abtest.NewSessionEnv(u, u.Pick(catalog), fcfg, fseed)
					if err != nil {
						t.Fatal(err)
					}
					for gi, g := range groups {
						var ss player.Session
						if err := ss.Start(env.PlayerConfig(g)); err != nil {
							t.Fatal(err)
						}
						for done := false; !done; {
							if done, err = ss.Step(); err != nil {
								t.Fatal(err)
							}
						}
						ms := metrics.FromResult(ss.Result(), u.Window, u.Day)
						if err := accums[gi].AddSession(sessionKey(int64(i), gi), ms); err != nil {
							t.Fatal(err)
						}
					}
					if off == cfg.ShardSize-1 || i == len(users)-1 {
						if err := cp.Record(shard, accums); err != nil {
							t.Fatal(err)
						}
					}
				}
				rep, err := FinalReport(cp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reportBytes(t, rep), want) {
					t.Error("replaying the retained users does not reproduce the campaign's report")
				}
			})
		}
	}
}

// TestRetainedTraceConcurrentFirstRead: a User a campaign handed to an arm
// factory carries its draw's key, not a trace, and replays of retained
// users may be fanned out over workers. Eight goroutines replay one such
// User through NewSessionEnv at once; each env must stream the eager draw
// of the User's key, and go test -race checks the replays share nothing.
func TestRetainedTraceConcurrentFirstRead(t *testing.T) {
	var users []abtest.User
	groups := abtest.StandardGroups()
	first := groups[0].New
	groups[0].New = func(u abtest.User) abr.Algorithm {
		users = append(users, u)
		return first(u)
	}
	cfg := Config{Seed: 13, Sessions: 8, ShardSize: 8, CatalogSize: 6, Parallelism: 1, Groups: groups}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.applyDefaults()
	catalog, err := media.NewCatalog(cfg.CatalogSize, cfg.Ladder, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	const off = 5 // shard 0: window 5 of day 0 in the interleaved layout
	u := users[off]
	if u.Trace != nil {
		t.Fatal("a campaign handed an arm factory a User with a trace")
	}
	want := abtest.DrawUser(cfg.Population, u.Window, u.Day, rand.New(rand.NewSource(shardSeed(cfg.Seed, 0, off)))).Trace.Segments()
	start := make(chan struct{})
	got := make([][]trace.Segment, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			env, err := abtest.NewSessionEnv(u, u.Pick(catalog), nil, 0)
			if errs[i] = err; err == nil {
				got[i] = env.Trace.Segments()
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, segs := range got {
		if errs[i] != nil {
			t.Errorf("goroutine %d: %v", i, errs[i])
		} else if !reflect.DeepEqual(segs, want) {
			t.Errorf("goroutine %d replayed a trace of %d segments unlike the eager draw's %d", i, len(segs), len(want))
		}
	}
}
