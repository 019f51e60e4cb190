package campaign

import (
	"context"
	"fmt"
	"math"
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
// straight-line reference: every session must equal abtest.PlayUser on the
// abtest.SessionRNG(seed, day, window, i) draw — the population the figures
// have always been drawn from — clean and under fault weather, at any
// worker count and kernel width. It is also the reference for the weekend's
// fold: run under an Extra that retains every session beside the fold,
// the fold's windows must equal metrics.Aggregate over the retained
// sessions and its every pair accumulator a reference built from them,
// the folded Extra must hold no session, and RunWeekend must return those
// same windows.
func TestWeekendMatchesPlayUserOracle(t *testing.T) {
	const seed, days, perWindow = 17, 2, 3
	fc := faults.DefaultScheduleConfig()
	for _, fcfg := range []*faults.ScheduleConfig{nil, &fc} {
		base := WeekendConfig(seed, days, perWindow)
		base.CatalogSize = 6
		base.Faults, base.FaultSeed = fcfg, 23
		groups := abtest.StandardGroups()
		names := make([]string, len(groups))
		for gi, g := range groups {
			names[gi] = g.Name
		}

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
					retained := cfg
					retained.NewExtra = func() Extra {
						return &retainingFold{weekendFold: newWeekendFold(names, perWindow), kept: make([][]metrics.Session, len(names))}
					}
					run, err := RunContext(context.Background(), retained)
					if err != nil {
						t.Fatal(err)
					}
					fold := run.Extra.(*retainingFold)
					if len(fold.merged) != days*metrics.WindowsPerDay {
						t.Errorf("the fold merged %d shards, want %d", len(fold.merged), days*metrics.WindowsPerDay)
					}
					for _, e := range append(fold.merged, fold) {
						if e.log != nil {
							t.Errorf("a folded Extra still holds %d sessions", len(e.log))
						}
					}
					out, err := RunWeekend(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					for gi, g := range groups {
						got := fold.kept[gi]
						if len(got) != len(want[gi]) {
							t.Fatalf("group %s: %d sessions, want %d", g.Name, len(got), len(want[gi]))
						}
						for i := range got {
							if got[i] != want[gi][i] {
								t.Fatalf("group %s session %d: %+v, PlayUser gives %+v", g.Name, i, got[i], want[gi][i])
							}
						}
						ws, err := metrics.Aggregate(got)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fold.windows[gi].Windows(), ws) {
							t.Errorf("group %s: folded windows differ from aggregating the retained sessions", g.Name)
						}
						if !reflect.DeepEqual(out.Windows[g.Name], ws) {
							t.Errorf("group %s: RunWeekend's windows differ from aggregating the retained sessions", g.Name)
						}
					}
					checkPairs(t, fold.Pairs, fold.kept)
					checkPairs(t, out.Pairs, fold.kept)
				})
			}
		}
	}
}

// retainingFold is the weekend's fold that also keeps every group's
// sessions, in global order, and every shard Extra it merged, for the
// reference checks.
type retainingFold struct {
	*weekendFold
	kept   [][]metrics.Session
	merged []*retainingFold
}

func (r *retainingFold) AddSessionSet(global int64, ms []metrics.Session) error {
	for gi, s := range ms {
		r.kept[gi] = append(r.kept[gi], s)
	}
	return r.weekendFold.AddSessionSet(global, ms)
}

func (r *retainingFold) Merge(o Extra) error {
	or := o.(*retainingFold)
	for gi, ss := range or.kept {
		r.kept[gi] = append(r.kept[gi], ss...)
	}
	r.merged = append(r.merged, or)
	return r.weekendFold.Merge(or.weekendFold)
}

// checkPairs holds every pair accumulator of ps to a reference over the
// retained sessions, under the same inclusion rules: each A−B Welford to
// one built draw by draw within 1e-12, and each class's pooled rebuffer
// test — ratio, CI ends and p — to a two-pass computation within 1e-9.
func checkPairs(t *testing.T, ps *Pairs, kept [][]metrics.Session) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
	k := 0
	for i := range kept {
		for j := i + 1; j < len(kept); j++ {
			var want [metrics.NumClasses][numMetrics]stats.Welford
			var rebufs [metrics.NumClasses][][4]float64
			for d := range kept[i] {
				a, b := kept[i][d], kept[j][d]
				for _, c := range []metrics.Class{metrics.AllWindows, metrics.ClassOf(a.Window)} {
					ref := func(m Metric, x, y float64) {
						if err := want[c][m].Add(x - y); err != nil {
							t.Fatal(err)
						}
					}
					rebufs[c] = append(rebufs[c], [4]float64{float64(a.Rebuffers), a.PlayHours, float64(b.Rebuffers), b.PlayHours})
					ref(MetricAvgRate, a.AvgRateKbps, b.AvgRateKbps)
					if a.StartupRateKbps > 0 && b.StartupRateKbps > 0 {
						ref(MetricStartup, a.StartupRateKbps, b.StartupRateKbps)
					}
					if a.PlayHours > 0 && b.PlayHours > 0 {
						ref(MetricQoE, a.QoE/a.PlayHours, b.QoE/b.PlayHours)
						ref(MetricRebuffer, float64(a.Rebuffers)/a.PlayHours, float64(b.Rebuffers)/b.PlayHours)
						ref(MetricSwitch, float64(a.Switches)/a.PlayHours, float64(b.Switches)/b.PlayHours)
					}
					if c == metrics.ClassOf(a.Window) {
						break // a window outside both classes counts once, in metrics.AllWindows
					}
				}
			}
			p := ps.List()[k]
			if p.Draws != int64(len(kept[i])) {
				t.Errorf("pair %s/%s: %d draws, want %d", p.A, p.B, p.Draws, len(kept[i]))
			}
			for c := range want {
				for m := range want[c] {
					g, r := p.By[c][m], want[c][m]
					if g.N != r.N || !near(g.Mean, r.Mean) || !near(g.M2, r.M2) || g.Min != r.Min || g.Max != r.Max {
						t.Fatalf("pair %s/%s class %d metric %d: %+v, sequential %+v", p.A, p.B, c, m, g, r)
					}
				}
				got, gotErr := p.Rebuffers[c].Test(0.9)
				ref, refErr := twoPassRatioTest(rebufs[c], 0.9)
				close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
				if gotErr != refErr || got.N != ref.N || !close(got.Ratio, ref.Ratio) || !close(got.Lo, ref.Lo) || !close(got.Hi, ref.Hi) || !close(got.P, ref.P) {
					t.Fatalf("pair %s/%s class %d rebuffers: %+v (%v), two-pass %+v (%v)", p.A, p.B, c, got, gotErr, ref, refErr)
				}
			}
			k++
		}
	}
}

// twoPassRatioTest is stats.RatioPair.Test computed the textbook way over
// retained draws: the means first, then each draw's influence on log R,
// g·(x − mean), whose sample variance over n is se².
func twoPassRatioTest(draws [][4]float64, conf float64) (stats.RatioTest, error) {
	res := stats.RatioTest{N: int64(len(draws))}
	var m [4]float64
	for _, x := range draws {
		for i := range m {
			m[i] += x[i]
		}
	}
	for i := range m {
		m[i] /= float64(len(draws))
	}
	if len(draws) < 2 || m[0] <= 0 || m[1] <= 0 || m[2] <= 0 || m[3] <= 0 {
		return res, stats.ErrUndecided
	}
	var ss float64
	for _, x := range draws {
		psi := (x[0]-m[0])/m[0] - (x[1]-m[1])/m[1] - (x[2]-m[2])/m[2] + (x[3]-m[3])/m[3]
		ss += psi * psi
	}
	n := float64(len(draws))
	se := math.Sqrt(ss / (n - 1) / n)
	res.Ratio = m[0] / m[1] / (m[2] / m[3])
	lr := math.Log(res.Ratio)
	z := math.Sqrt2 * math.Erfinv(conf)
	res.Lo, res.Hi = math.Exp(lr-z*se), math.Exp(lr+z*se)
	res.P = 1
	if lr != 0 {
		res.P = math.Erfc(math.Abs(lr) / se / math.Sqrt2)
	}
	return res, nil
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
