package abtest

import (
	"math/rand"
	"testing"
	"time"

	"bba/internal/stats"
	"bba/internal/units"
)

func TestDiurnalHarshness(t *testing.T) {
	for w := 0; w < 12; w++ {
		h := DiurnalHarshness(w)
		if h < 0 || h > 1 {
			t.Errorf("window %d: harshness %v outside [0,1]", w, h)
		}
	}
	// Peak (US evening, 0-6 GMT) harsher than the overnight lull.
	if DiurnalHarshness(0) <= DiurnalHarshness(4) {
		t.Error("peak window not harsher than off-peak")
	}
	if DiurnalHarshness(-1) != 0.5 || DiurnalHarshness(12) != 0.5 {
		t.Error("out-of-range windows should get the neutral default")
	}
}

func TestDrawUserRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		u := DrawUser(PopulationConfig{}, i%12, 0, rng)
		if u.BaseCapacity < 500*units.Kbps || u.BaseCapacity > 60*units.Mbps {
			t.Fatalf("base capacity %v out of range", u.BaseCapacity)
		}
		if u.WatchTime < 5*time.Minute || u.WatchTime > 3*time.Hour {
			t.Fatalf("watch time %v out of range", u.WatchTime)
		}
		if u.Rmin != 235*units.Kbps && u.Rmin != 560*units.Kbps {
			t.Fatalf("Rmin %v is neither 235 nor 560 kb/s", u.Rmin)
		}
		if u.Trace == nil || u.Trace.Total() < u.WatchTime {
			t.Fatal("trace missing or shorter than the session")
		}
		if u.Sigma <= 0 {
			t.Fatalf("sigma %v", u.Sigma)
		}
	}
}

func TestDrawUserDeterministic(t *testing.T) {
	a := DrawUser(PopulationConfig{}, 0, 0, rand.New(rand.NewSource(9)))
	b := DrawUser(PopulationConfig{}, 0, 0, rand.New(rand.NewSource(9)))
	if a.BaseCapacity != b.BaseCapacity || a.WatchTime != b.WatchTime ||
		a.TitleIndex != b.TitleIndex || a.Rmin != b.Rmin {
		t.Error("same-seed users differ")
	}
	sa, sb := a.Trace.Segments(), b.Trace.Segments()
	if len(sa) != len(sb) {
		t.Fatal("same-seed traces differ in length")
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same-seed traces differ")
		}
	}
}

func TestRminPromotionFollowsHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := PopulationConfig{}
	promoted, total := 0, 400
	for i := 0; i < total; i++ {
		u := DrawUser(cfg, 0, 0, rng)
		threshold := 1500 * units.Kbps
		if (u.History >= threshold) != (u.Rmin == 560*units.Kbps) {
			t.Fatalf("promotion inconsistent: history %v, Rmin %v", u.History, u.Rmin)
		}
		if u.Rmin == 560*units.Kbps {
			promoted++
		}
	}
	// "Most customers can sustain 560kb/s": the majority is promoted.
	if promoted < total/2 {
		t.Errorf("only %d/%d promoted; footnote 3 says most", promoted, total)
	}
}

// Section 1–2 calibration. The paper's statistics are all-day averages
// over 300k sessions: ~10% with median throughput below half the 95th
// percentile, ~10% with Figure 1-level quartile ratios and 22% with half
// that. Our population concentrates variability at peak (that is where the
// paper's effects live), so the calibration check is:
//
//   - the Figure 1-like tail exists in every window (≥ the paper's 10% at
//     peak, and present but small off-peak), and
//   - the quiet overnight windows are much more stable than peak.
func TestPopulationVariabilityCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	frac := func(window int) (figure1, highQuartile float64) {
		const n = 250
		var f1, hq int
		for i := 0; i < n; i++ {
			u := DrawUser(PopulationConfig{}, window, 0, rng)
			rates := u.Trace.Rates(time.Second)
			m95, err := stats.MedianTo95Ratio(rates)
			if err != nil {
				t.Fatal(err)
			}
			if m95 < 0.5 {
				f1++
			}
			if qr, _ := stats.QuartileRatio(rates); qr >= 2.8 {
				hq++
			}
		}
		return float64(f1) / n, float64(hq) / n
	}
	peakF1, peakHQ := frac(0) // US evening peak
	offF1, offHQ := frac(4)   // overnight lull
	if peakF1 < 0.10 {
		t.Errorf("peak Figure 1-like fraction = %.2f, want at least the paper's 0.10", peakF1)
	}
	if peakHQ < 0.10 {
		t.Errorf("peak quartile-ratio tail = %.2f, want ≥ 0.10", peakHQ)
	}
	if offF1 >= peakF1 {
		t.Errorf("off-peak variability (%.2f) not below peak (%.2f)", offF1, peakF1)
	}
	if offHQ >= peakHQ {
		t.Errorf("off-peak quartile tail (%.2f) not below peak (%.2f)", offHQ, peakHQ)
	}
	if offF1 > 0.45 {
		t.Errorf("off-peak Figure 1-like fraction = %.2f; overnight should be mostly stable", offF1)
	}
}

func TestApplyOverridesDropsCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := DrawUser(PopulationConfig{OutageProb: 1e-9, FadesPerHour: 20}, 0, 0, rng)
	// Many fades were requested; colliding ones must have been dropped,
	// leaving a valid trace covering the session.
	if u.Trace.Total() < u.WatchTime {
		t.Error("override application corrupted the trace length")
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if poisson(0, rng) != 0 || poisson(-1, rng) != 0 {
		t.Error("non-positive mean should yield 0")
	}
	var sum int
	const n = 2000
	for i := 0; i < n; i++ {
		sum += poisson(2.5, rng)
	}
	mean := float64(sum) / n
	if mean < 2.3 || mean > 2.7 {
		t.Errorf("poisson mean = %v, want ≈2.5", mean)
	}
}

func TestSessionRNGSeparation(t *testing.T) {
	// Neighbouring coordinates must produce unrelated streams.
	a := SessionRNG(1, 0, 0, 0).Int63()
	b := SessionRNG(1, 0, 0, 1).Int63()
	c := SessionRNG(1, 0, 1, 0).Int63()
	d := SessionRNG(1, 1, 0, 0).Int63()
	e := SessionRNG(2, 0, 0, 0).Int63()
	seen := map[int64]bool{a: true}
	for _, v := range []int64{b, c, d, e} {
		if seen[v] {
			t.Fatal("session RNG streams collide")
		}
		seen[v] = true
	}
	// And identical coordinates reproduce.
	if SessionRNG(1, 2, 3, 4).Int63() != SessionRNG(1, 2, 3, 4).Int63() {
		t.Error("session RNG not deterministic")
	}
}
