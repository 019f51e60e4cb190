package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bba/internal/abtest"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/stats"
)

// TestWeekendMatchesPlayUserOracle holds the weekend campaign to the
// straight-line reference: every retained session must equal abtest.PlayUser
// on the abtest.SessionRNG(seed, day, window, i) draw — the population the
// figures have always been drawn from — clean and under fault weather, at
// any worker count and kernel width.
func TestWeekendMatchesPlayUserOracle(t *testing.T) {
	const seed, days, perWindow = 17, 2, 3
	fc := faults.DefaultScheduleConfig()
	for _, fcfg := range []*faults.ScheduleConfig{nil, &fc} {
		base := WeekendConfig(seed, days, perWindow)
		base.CatalogSize = 6
		base.Faults, base.FaultSeed = fcfg, 23
		groups := abtest.StandardGroups()

		catalog, err := media.NewCatalog(base.CatalogSize, media.DefaultLadder(), seed)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]metrics.Session, len(groups))
		for day := 0; day < days; day++ {
			for window := 0; window < metrics.WindowsPerDay; window++ {
				for i := 0; i < perWindow; i++ {
					u := abtest.DrawUser(base.Population, window, day, abtest.SessionRNG(seed, day, window, i))
					ms, err := abtest.PlayUser(context.Background(), u, u.Pick(catalog), groups, fcfg,
						abtest.SessionFaultSeed(base.FaultSeed, day, window, i))
					if err != nil {
						t.Fatal(err)
					}
					for gi := range groups {
						want[gi] = append(want[gi], ms[gi])
					}
				}
			}
		}

		for _, par := range []int{1, 8} {
			for _, width := range []int{1, 8} {
				t.Run(fmt.Sprintf("faults=%v/par=%d/width=%d", fcfg != nil, par, width), func(t *testing.T) {
					cfg := base
					cfg.Parallelism, cfg.Batch, cfg.BatchWidth = par, width > 1, width
					out, err := RunWeekend(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					for gi, g := range groups {
						got := out.Sessions[g.Name]
						if len(got) != len(want[gi]) {
							t.Fatalf("group %s: %d sessions, want %d", g.Name, len(got), len(want[gi]))
						}
						for i := range got {
							if got[i] != want[gi][i] {
								t.Fatalf("group %s session %d: %+v, PlayUser gives %+v", g.Name, i, got[i], want[gi][i])
							}
						}
						ws, err := metrics.Aggregate(want[gi])
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(out.Windows[g.Name], ws) {
							t.Errorf("group %s: windows differ from aggregating the oracle's sessions", g.Name)
						}
					}
				})
			}
		}
	}
}

// TestWeekendLayoutIsIdentity pins that the layout is part of the campaign
// identity and is checked: a weekend checkpoint does not resume as an
// interleaved campaign of the same numbers, and a weekend campaign
// whose shards are not exactly the calendar's windows — or a layout this
// build does not know — is rejected before anything runs.
func TestWeekendLayoutIsIdentity(t *testing.T) {
	cfg := WeekendConfig(5, 1, 2)
	cfg.CatalogSize, cfg.SketchSize, cfg.Groups = 4, 64, twoGroups()
	weekend, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := weekend.Checkpoint.Save(path); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Identity.Layout != Weekend {
		t.Fatalf("round-tripped checkpoint has layout %q", cp.Identity.Layout)
	}

	inter := cfg
	inter.Layout = Interleaved
	plain, err := Run(inter)
	if err != nil {
		t.Fatal(err)
	}
	if string(reportBytes(t, plain.Report)) == string(reportBytes(t, weekend.Report)) {
		t.Error("weekend and interleaved layouts drew the same population")
	}
	inter.Resume = cp
	if _, err := Run(inter); err == nil {
		t.Error("weekend checkpoint resumed under an interleaved config")
	}

	missized := cfg
	missized.Sessions++
	if _, err := Run(missized); err == nil {
		t.Error("weekend campaign with sessions ≠ days × 12 × shard size ran")
	}
	if _, err := NewShardRunner(missized); err == nil {
		t.Error("shard runner accepted a mis-sized weekend campaign")
	}
	unknown := cfg
	unknown.Layout = "fortnight"
	if _, err := Run(unknown); err == nil {
		t.Error("unknown layout ran")
	}
	if _, err := RunWeekend(context.Background(), inter); err == nil {
		t.Error("RunWeekend accepted an interleaved config")
	}
}

// TestDerivedSeedsPinned pins, against values computed before the mixers
// were folded into stats.SplitMix64, every seed and hash derived through
// it that this package can reach (soak's own is pinned in its package):
// each caller keeps its pre-mix, so populations, fault weather, retry
// jitter and sketch retention are bit-unchanged.
func TestDerivedSeedsPinned(t *testing.T) {
	sketch := stats.NewQuantileSketch(4)
	if err := sketch.Add(1.5, 12345); err != nil {
		t.Fatal(err)
	}
	u := func(v int64) uint64 { return uint64(v) }
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"stats.SplitMix64(0x0123456789ABCDEF)", stats.SplitMix64(0x0123456789ABCDEF), 0xb2c058e4ebb5112c},
		{"sketch hash of key 12345", sketch.Entries[0].Hash, 0x22118258a9d111a0},
		{"abtest.SessionRNG(2014,1,7,33).Int63", u(abtest.SessionRNG(2014, 1, 7, 33).Int63()), 4659651070516792892},
		{"abtest.SessionFaultSeed(2014,1,7,33)", u(abtest.SessionFaultSeed(2014, 1, 7, 33)), u(-1067182533846588944)},
		{"abtest.SessionFaultSeed(-5,0,0,0)", u(abtest.SessionFaultSeed(-5, 0, 0, 0)), u(-4859124420199838420)},
		{"shardSeed(2014,3,17)", u(shardSeed(2014, 3, 17)), u(-1402423802302810624)},
		{"shardFaultSeed(7,3,17)", u(shardFaultSeed(7, 3, 17)), u(-629185584930625087)},
		{"faults.Backoff(1s,30s,2014,5,2)", u(int64(faults.Backoff(time.Second, 30*time.Second, 2014, 5, 2))), 2256241928},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
}
