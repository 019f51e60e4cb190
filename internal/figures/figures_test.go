package figures

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"bba/internal/campaign"
	"bba/internal/metrics"
)

func TestAllGeneratorsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			fig, err := e.Gen(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID == "" || fig.Title == "" {
				t.Error("figure missing identity")
			}
			if len(fig.Series) == 0 {
				t.Error("figure has no series")
			}
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Errorf("series %q empty", s.Name)
				}
			}
			if len(fig.Notes) == 0 {
				t.Error("figure has no paper-comparison notes")
			}
			var buf bytes.Buffer
			if err := fig.WriteTable(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), strings.ToUpper(fig.ID)) {
				t.Error("rendered table missing figure id")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("Fig10VBRChunkSizes"); !ok {
		t.Error("known figure not found")
	}
	if _, ok := Lookup("Fig99Nothing"); ok {
		t.Error("unknown figure found")
	}
}

func TestExperimentOutcomeCached(t *testing.T) {
	a, err := ExperimentOutcome(Quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExperimentOutcome(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("experiment not cached")
	}
}

// The paper's headline shape, asserted at Quick scale on the exact cached
// experiment every A/B figure reads from: at peak, every buffer-based
// algorithm rebuffers less than Control and more than (or near) the bound.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the weekend experiment")
	}
	out, err := ExperimentOutcome(Quick)
	if err != nil {
		t.Fatal(err)
	}
	rb := func(g string) float64 {
		return classAvg(out.Windows[g], metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
	}
	ctrl := rb("Control")
	bound := rb("Rmin Always")
	if ctrl <= bound {
		t.Fatalf("Control %.3f not above the bound %.3f", ctrl, bound)
	}
	for _, g := range []string{"BBA-0", "BBA-1", "BBA-2", "BBA-Others"} {
		v := rb(g)
		if v >= ctrl {
			t.Errorf("%s peak rebuffer rate %.3f not below Control %.3f", g, v, ctrl)
		}
		if v < bound*0.7 {
			t.Errorf("%s peak rebuffer rate %.3f implausibly below the bound %.3f", g, v, bound)
		}
	}
}

// TestGenerateAll pins the parallel path: every figure comes back in
// registry order with no errors, and the A/B figures all read the one
// single-flight experiment.
func TestGenerateAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite")
	}
	generated := GenerateAll(context.Background(), Quick)
	entries := All()
	if len(generated) != len(entries) {
		t.Fatalf("got %d generated figures, want %d", len(generated), len(entries))
	}
	for i, g := range generated {
		if g.Entry.Name != entries[i].Name {
			t.Errorf("slot %d holds %q, want %q (order must be registry order)", i, g.Entry.Name, entries[i].Name)
		}
		if g.Err != nil {
			t.Errorf("%s: %v", g.Entry.Name, g.Err)
		} else if g.Fig == nil || len(g.Fig.Series) == 0 {
			t.Errorf("%s: empty figure", g.Entry.Name)
		}
	}
	stats, ok := ExperimentStats(Quick)
	if !ok {
		t.Fatal("shared experiment did not run")
	}
	if stats.PlayerSessions == 0 || stats.Elapsed <= 0 {
		t.Errorf("stats = %+v, want populated", stats)
	}
}

func TestGenerateAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range GenerateAll(ctx, Quick) {
		// Figures served from a pre-canceled context must either have been
		// cached already (fine) or report the cancellation.
		if g.Err != nil && !errors.Is(g.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", g.Entry.Name, g.Err)
		}
	}
}

func TestWriteMarkdownQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure")
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7(a,b)", "Figure 18", "BenchmarkFig16StartupRamp", "ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestPairedRatioNoteUndecided: a peak-reduction note whose draws cannot
// decide a ratio CI says so and how many draws it had, rather than dropping
// the parenthetical. A two-draw weekend in which Control never rebuffered
// has no ratio; a third draw where it does decides one.
func TestPairedRatioNoteUndecided(t *testing.T) {
	out := &campaign.WeekendOutcome{Pairs: campaign.NewPairs([]string{"Control", "BBA-1"})}
	draw := func(global int64, ctrl, bba1 int) {
		t.Helper()
		ms := []metrics.Session{
			{Window: 1, PlayHours: 1, Rebuffers: ctrl},
			{Window: 1, PlayHours: 1, Rebuffers: bba1},
		}
		if err := out.Pairs.AddSessionSet(global, ms); err != nil {
			t.Fatal(err)
		}
	}
	note := func() string {
		t.Helper()
		s, err := pairedRatioNote(out, "BBA-1")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	draw(0, 0, 1)
	if got, want := note(), " (paired CI undecided: n = 1 draws)"; got != want {
		t.Errorf("one draw: %q, want %q", got, want)
	}
	draw(1, 0, 2)
	if got, want := note(), " (paired CI undecided: n = 2 draws)"; got != want {
		t.Errorf("two draws, Control at 0: %q, want %q", got, want)
	}
	draw(2, 3, 0)
	if got := note(); !strings.HasPrefix(got, " (90% paired CI on the ratio: ") {
		t.Errorf("three draws: %q, want a decided CI", got)
	}
	if _, err := pairedRatioNote(out, "BBA-2"); err == nil {
		t.Error("a group outside the outcome gave a note")
	}
}
