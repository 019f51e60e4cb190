package figures

import (
	"testing"

	"bba/internal/campaign"
)

// TestShapeOutageRobustness pins the figure's acceptance shape: for every
// outage shorter than the 240 s player buffer, both buffer-based
// algorithms rebuffer strictly less than the Control; past the buffer
// capacity the gap is allowed to close (everyone must freeze).
func TestShapeOutageRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~1300 sessions")
	}
	fig, err := OutageRobustness()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series count = %d, want Control/BBA-0/BBA-1", len(fig.Series))
	}
	ctl, bba0, bba1 := fig.Series[0], fig.Series[1], fig.Series[2]
	for i, p := range ctl.Points {
		// The last sweep point (300 s) exceeds the buffer capacity.
		if i == len(ctl.Points)-1 {
			continue
		}
		if bba0.Points[i].Y >= p.Y {
			t.Errorf("outage %s: BBA-0 rebuffer rate %.3f not strictly below Control %.3f",
				p.X, bba0.Points[i].Y, p.Y)
		}
		if bba1.Points[i].Y >= p.Y {
			t.Errorf("outage %s: BBA-1 rebuffer rate %.3f not strictly below Control %.3f",
				p.X, bba1.Points[i].Y, p.Y)
		}
	}
	// Rebuffer rates must not decrease as the outage lengthens (within a
	// series, longer outages can only hurt) — sanity on the sweep itself.
	for _, s := range fig.Series {
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		if last < first {
			t.Errorf("%s: rebuffer rate fell from %.3f to %.3f as outages lengthened", s.Name, first, last)
		}
	}
}

// TestExperimentConfigMatchesScales pins the exported config against the
// populations the cached weekend experiment actually runs.
func TestExperimentConfigMatchesScales(t *testing.T) {
	q := ExperimentConfig(Quick)
	if q.Seed != ExperimentSeed || q.Days != 2 || q.ShardSize != 80 || q.Sessions != 2*12*80 || q.Layout != campaign.Weekend {
		t.Errorf("quick config = %+v", q)
	}
	f := ExperimentConfig(Full)
	if f.Days != 3 || f.ShardSize != 160 || f.Sessions != 3*12*160 || f.Layout != campaign.Weekend {
		t.Errorf("full config = %+v", f)
	}
	if q.Faults != nil {
		t.Error("weekend experiment config must be clean by default")
	}
}
