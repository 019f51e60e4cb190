package campaign

import (
	"math"
	"testing"

	"bba/internal/metrics"
)

// TestPairsAccounting drives the paired comparison directly with hand-built
// draws and checks wins, ties, per-draw differences, pooled rebuffers,
// window classes, orientation and merging.
func TestPairsAccounting(t *testing.T) {
	ps := NewPairs([]string{"A", "B"})
	mk := func(window int, qoe, rate float64, rebuf int) metrics.Session {
		return metrics.Session{Window: window, PlayHours: 1, QoE: qoe, AvgRateKbps: rate, Rebuffers: rebuf}
	}
	draws := [][]metrics.Session{
		{mk(0, 10, 2000, 0), mk(0, 5, 1500, 2)}, // A wins, peak
		{mk(4, 3, 1000, 1), mk(4, 7, 1800, 0)},  // B wins, off-peak
		{mk(9, 4, 1200, 1), mk(9, 4, 1300, 1)},  // tie on QoE, neither class
	}
	for g, ms := range draws {
		if err := ps.AddSessionSet(int64(g), ms); err != nil {
			t.Fatal(err)
		}
	}
	p := ps.List()[0]
	if p.A != "A" || p.B != "B" || p.Draws != 3 || p.WinsA != 1 || p.WinsB != 1 || p.Ties != 1 {
		t.Errorf("accounting: %s/%s draws %d wins %d−%d ties %d", p.A, p.B, p.Draws, p.WinsA, p.WinsB, p.Ties)
	}
	all := p.By[metrics.AllWindows]
	if got := all[MetricAvgRate].Mean; math.Abs(got-(500.0-800.0-100.0)/3) > 1e-9 {
		t.Errorf("mean rate difference = %v", got)
	}
	if got := all[MetricRebuffer].Mean; math.Abs(got-(-2.0+1.0+0.0)/3) > 1e-9 {
		t.Errorf("mean rebuffer difference = %v", got)
	}
	if n := all[MetricStartup].N; n != 0 {
		t.Errorf("startup sample holds %d draws with no startup rate", n)
	}
	if peak, off := p.By[metrics.Peak][MetricAvgRate], p.By[metrics.OffPeak][MetricAvgRate]; peak.N != 1 || peak.Mean != 500 || off.N != 1 || off.Mean != -800 {
		t.Errorf("classes: peak %+v, off-peak %+v", peak, off)
	}
	if r := p.Rebuffers[metrics.AllWindows]; r.N != 3 || r.Mean != [4]float64{2.0 / 3, 1, 1, 1} {
		t.Errorf("pooled rebuffers: %+v, want 3 draws, means 2/3, 1, 1, 1", r)
	}

	// Seen from B, the arms trade places.
	if ab, ba := p.Rebuffers[metrics.AllWindows], p.Rebuffers[metrics.AllWindows].Swapped(); ba.N != ab.N || ba.Mean != [4]float64{ab.Mean[2], ab.Mean[3], ab.Mean[0], ab.Mean[1]} || ba.C[0][3] != ab.C[2][1] || ba.C[1][2] != ab.C[3][0] {
		t.Errorf("swapped: %+v, from %+v", ba, ab)
	}
	out := &WeekendOutcome{Pairs: ps}
	if _, err := out.SignificanceRebuffers("A", "C", metrics.AllWindows); err == nil {
		t.Error("unknown group compared")
	}

	// Merge keeps exact totals and rejects foreign shapes.
	ps2 := NewPairs([]string{"A", "B"})
	if err := ps2.AddSessionSet(100, []metrics.Session{mk(1, 1, 500, 0), mk(1, 2, 600, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Merge(ps2); err != nil {
		t.Fatal(err)
	}
	if p := ps.List()[0]; p.Draws != 4 || p.WinsB != 2 || p.By[metrics.Peak][MetricAvgRate].N != 2 || p.Rebuffers[metrics.Peak].N != 2 {
		t.Errorf("after merge: draws %d, B wins %d, peak draws %d and %d", p.Draws, p.WinsB, p.By[metrics.Peak][MetricAvgRate].N, p.Rebuffers[metrics.Peak].N)
	}
	if err := ps.Merge(NewPairs([]string{"A", "B", "C"})); err == nil {
		t.Error("mismatched pair count accepted")
	}
	if err := ps.Merge(NewPairs([]string{"B", "A"})); err == nil {
		t.Error("pairs of the groups in another order accepted")
	}
	if err := ps.Merge(&weekendFold{Pairs: NewPairs([]string{"A", "B"})}); err == nil {
		t.Error("foreign Extra type accepted")
	}
	if err := ps.AddSessionSet(5, draws[0][:1]); err == nil {
		t.Error("one session for two groups accepted")
	}
}
