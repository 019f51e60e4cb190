package campaign

import (
	"math"
	"testing"

	"bba/internal/metrics"
)

// TestPairsAccounting drives the paired comparison directly with hand-built
// draws and checks wins, ties, per-draw differences, window classes,
// orientation and merging.
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
	if got := all[MetricAvgRate].D.Mean; math.Abs(got-(500.0-800.0-100.0)/3) > 1e-9 {
		t.Errorf("mean rate difference = %v", got)
	}
	if got := all[MetricRebuffer].D.Mean; math.Abs(got-(-2.0+1.0+0.0)/3) > 1e-9 {
		t.Errorf("mean rebuffer difference = %v", got)
	}
	if n := all[MetricStartup].D.N; n != 0 {
		t.Errorf("startup sample holds %d draws with no startup rate", n)
	}
	if peak, off := p.By[metrics.Peak][MetricAvgRate], p.By[metrics.OffPeak][MetricAvgRate]; peak.D.N != 1 || peak.D.Mean != 500 || off.D.N != 1 || off.D.Mean != -800 {
		t.Errorf("classes: peak %+v, off-peak %+v", peak.D, off.D)
	}

	// Seen from B, the arms trade places and the differences change sign.
	ba, err := ps.Compare("B", "A", metrics.AllWindows, MetricAvgRate)
	if err != nil {
		t.Fatal(err)
	}
	ab := all[MetricAvgRate]
	if ba.A != ab.B || ba.B != ab.A || ba.D.Mean != -ab.D.Mean || ba.D.M2 != ab.D.M2 || ba.D.Min != -ab.D.Max || ba.D.Max != -ab.D.Min {
		t.Errorf("swapped: %+v, from %+v", ba, ab)
	}
	if _, err := ps.Compare("A", "C", metrics.AllWindows, MetricAvgRate); err == nil {
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
	if p := ps.List()[0]; p.Draws != 4 || p.WinsB != 2 || p.By[metrics.Peak][MetricAvgRate].D.N != 2 {
		t.Errorf("after merge: draws %d, B wins %d, peak draws %d", p.Draws, p.WinsB, p.By[metrics.Peak][MetricAvgRate].D.N)
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
