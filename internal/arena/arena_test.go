package arena

import (
	"bytes"
	"strings"
	"testing"

	"bba/internal/abr"
	"bba/internal/campaign"
	"bba/internal/faults"
)

func testConfig(sessions int) Config {
	fc := faults.DefaultScheduleConfig()
	return Config{
		Campaign: campaign.Config{
			Seed:        41,
			FaultSeed:   7,
			Faults:      &fc,
			Sessions:    sessions,
			ShardSize:   8,
			CatalogSize: 4,
			SketchSize:  64,
		},
		Entrants: []string{"BBA-2", "BOLA", "SmoothThroughput"},
	}
}

func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArenaDeterminism pins the tentpole contract: the same seed produces a
// byte-identical N-way report — marginals AND pairwise matches — at any
// worker count, under fault weather. CI runs this under -race.
func TestArenaDeterminism(t *testing.T) {
	cfg := testConfig(28) // 4 shards, last one partial

	cfg.Campaign.Parallelism = 1
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref)

	cfg.Campaign.Parallelism = 8
	wide, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, wide), want) {
		t.Error("8-worker arena report differs from single-worker report")
	}
}

// TestArenaReportShape checks the tournament wiring end to end: 3 entrants
// produce 3 pairings in canonical order, every pairing covers every draw,
// win counts are consistent, and the campaign marginals carry the entrants
// in order.
func TestArenaReportShape(t *testing.T) {
	cfg := testConfig(12)
	cfg.Campaign.Parallelism = 2
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != ReportSchema {
		t.Errorf("schema %q", r.Schema)
	}
	if len(r.Matches) != 3 {
		t.Fatalf("3 entrants produced %d pairings, want 3", len(r.Matches))
	}
	wantPairs := [][2]string{
		{"BBA-2", "BOLA"},
		{"BBA-2", "SmoothThroughput"},
		{"BOLA", "SmoothThroughput"},
	}
	for i, m := range r.Matches {
		if m.A != wantPairs[i][0] || m.B != wantPairs[i][1] {
			t.Errorf("pairing %d = %s vs %s, want %s vs %s", i, m.A, m.B, wantPairs[i][0], wantPairs[i][1])
		}
		if m.Sessions != 12 {
			t.Errorf("pairing %s vs %s covers %d draws, want 12", m.A, m.B, m.Sessions)
		}
		if m.WinsA+m.WinsB+m.Ties != m.Sessions {
			t.Errorf("pairing %s vs %s: wins %d + %d + ties %d != %d", m.A, m.B, m.WinsA, m.WinsB, m.Ties, m.Sessions)
		}
		if m.WinRateA < 0 || m.WinRateA > 1 {
			t.Errorf("win rate %f", m.WinRateA)
		}
		if m.DAvgRateKbps.N != m.Sessions {
			t.Errorf("rate delta covers %d of %d sessions", m.DAvgRateKbps.N, m.Sessions)
		}
		if m.DQoEPerPlayhour.CI95Lo > m.DQoEPerPlayhour.Mean || m.DQoEPerPlayhour.CI95Hi < m.DQoEPerPlayhour.Mean {
			t.Errorf("CI does not bracket the mean")
		}
	}
	if got := len(r.Campaign.Groups); got != 3 {
		t.Fatalf("campaign carries %d groups", got)
	}
	for i, g := range r.Campaign.Groups {
		if g.Name != cfg.Entrants[i] {
			t.Errorf("group %d = %q, want %q", i, g.Name, cfg.Entrants[i])
		}
	}

	var table bytes.Buffer
	if err := r.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BBA-2 vs BOLA", "head-to-head", "entrant"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}
}

func TestArenaConfigValidation(t *testing.T) {
	if _, err := Run(Config{Campaign: campaign.Config{Sessions: 4}, Entrants: []string{"BBA-2"}}); err == nil {
		t.Error("single entrant accepted")
	}
	if _, err := Run(Config{Campaign: campaign.Config{Sessions: 4}, Entrants: []string{"BBA-2", "BBA-2"}}); err == nil {
		t.Error("duplicate entrant accepted")
	}
	if _, err := Run(Config{Campaign: campaign.Config{Sessions: 4}, Entrants: []string{"BBA-2", "no-such-algorithm"}}); err == nil {
		t.Error("unknown entrant accepted")
	}
	many := make([]string, maxEntrants+1)
	for i := range many {
		many[i] = "x"
	}
	if _, err := Run(Config{Campaign: campaign.Config{Sessions: 4}, Entrants: many}); err == nil {
		t.Error("oversized field accepted")
	}
}

// TestArenaExtraGuards: the campaign refuses extras on a resumed run —
// extras are not checkpointed, so a resume could not restore them.
func TestArenaExtraGuards(t *testing.T) {
	ccfg := campaign.Config{
		Sessions: 8,
		NewExtra: func() campaign.Extra { return campaign.NewPairs([]string{"A", "B"}) },
	}
	ccfg.Resume = campaign.NewCheckpoint(ccfg.Identity())
	if _, err := campaign.Run(ccfg); err == nil {
		t.Error("resumed run with NewExtra accepted")
	}
}

// TestDefaultFieldRegistered: every default entrant must stay registered.
func TestDefaultFieldRegistered(t *testing.T) {
	for _, name := range DefaultField {
		if _, err := abr.New(name); err != nil {
			t.Errorf("default entrant %q: %v", name, err)
		}
	}
}
