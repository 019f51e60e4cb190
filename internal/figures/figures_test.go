package figures

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
	if err := WriteMarkdownContext(context.Background(), &buf, Quick); err != nil {
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
// has no ratio; a third draw where it does decides one; a fourth group
// that never rebuffered has no ratio either.
func TestPairedRatioNoteUndecided(t *testing.T) {
	out := &campaign.WeekendOutcome{Pairs: campaign.NewPairs([]string{"Control", "BBA-1", "BBA-2"})}
	draw := func(global int64, ctrl, bba1 int) {
		t.Helper()
		ms := []metrics.Session{
			{Window: 1, PlayHours: 1, Rebuffers: ctrl},
			{Window: 1, PlayHours: 1, Rebuffers: bba1},
			{Window: 1, PlayHours: 1},
		}
		if err := out.Pairs.AddSessionSet(global, ms); err != nil {
			t.Fatal(err)
		}
	}
	note := func(g string) string {
		t.Helper()
		s, err := pairedRatioNote(out, g)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	draw(0, 0, 1)
	if got, want := note("BBA-1"), " (paired CI undecided: n = 1 draws)"; got != want {
		t.Errorf("one draw: %q, want %q", got, want)
	}
	draw(1, 0, 2)
	if got, want := note("BBA-1"), " (paired CI undecided: n = 2 draws)"; got != want {
		t.Errorf("two draws, Control at 0: %q, want %q", got, want)
	}
	draw(2, 3, 0)
	if got := note("BBA-1"); !strings.HasPrefix(got, " (90% paired CI on the ratio: ") {
		t.Errorf("three draws: %q, want a decided CI", got)
	}
	if got, want := note("BBA-2"), " (paired CI undecided: n = 3 draws)"; got != want {
		t.Errorf("BBA-2 at 0: %q, want %q", got, want)
	}
	if _, err := pairedRatioNote(out, "BBA-3"); err == nil {
		t.Error("a group outside the outcome gave a note")
	}
}

// TestSec4Undecided: a sec4 comparison whose draws cannot decide the test
// — BBA-1 never rebuffered off-peak — says so, with no p-value and no
// point, while the decided ones carry both.
func TestSec4Undecided(t *testing.T) {
	groups := []string{"Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others"}
	out := &campaign.WeekendOutcome{Pairs: campaign.NewPairs(groups)}
	for i, rebufs := range []int{1, 2, 0} {
		ms := make([]metrics.Session, len(groups))
		for gi, g := range groups {
			ms[gi] = metrics.Session{Window: 4, PlayHours: 1}
			if g != "BBA-1" {
				ms[gi].Rebuffers = rebufs + gi%2
			}
		}
		if err := out.Pairs.AddSessionSet(int64(i), ms); err != nil {
			t.Fatal(err)
		}
	}
	fig, err := sec4Figure(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fig.Notes[1], "BBA-1 vs Rmin Always off-peak: undecided: n = 3 draws"; got != want {
		t.Errorf("BBA-1 note %q, want %q", got, want)
	}
	var xs []string
	for _, p := range fig.Series[0].Points {
		xs = append(xs, p.X)
	}
	if want := []string{"BBA-0 vs bound", "BBA-2 vs bound", "BBA-Others vs bound", "Control vs bound"}; !slices.Equal(xs, want) {
		t.Errorf("points %q, want %q", xs, want)
	}
	if note := fig.Notes[0]; !strings.HasPrefix(note, "BBA-0 vs Rmin Always off-peak: p = ") {
		t.Errorf("BBA-0 note %q, want a p-value", note)
	}
}

// TestPairedRatioNoteCentredOnPrintedRatio: the peak note's CI is on the
// ratio the note prints — pooled rebuffers per play hour, as classAvg reads
// the windows — centred on it on the log scale. One short BBA-1 session
// holds its only rebuffer: a mean of per-session rates (20/h for that
// session) would put the ratio above 7, while the pooled one is 0.30.
func TestPairedRatioNoteCentredOnPrintedRatio(t *testing.T) {
	groups := []string{"Control", "BBA-1"}
	out := &campaign.WeekendOutcome{Pairs: campaign.NewPairs(groups)}
	draws := [][2]metrics.Session{
		{{Window: 0, PlayHours: 2, Rebuffers: 1}, {Window: 0, PlayHours: 2}},
		{{Window: 1, PlayHours: 1, Rebuffers: 1}, {Window: 1, PlayHours: 0.05, Rebuffers: 1}},
		{{Window: 1, PlayHours: 1.5, Rebuffers: 2}, {Window: 1, PlayHours: 1.5}},
		{{Window: 2, PlayHours: 1}, {Window: 2, PlayHours: 1}},
	}
	kept := make([][]metrics.Session, len(groups))
	for i, d := range draws {
		if err := out.Pairs.AddSessionSet(int64(i), d[:]); err != nil {
			t.Fatal(err)
		}
		for gi := range groups {
			kept[gi] = append(kept[gi], d[gi])
		}
	}
	peak := func(ss []metrics.Session) float64 {
		t.Helper()
		ws, err := metrics.Aggregate(ss)
		if err != nil {
			t.Fatal(err)
		}
		return classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
	}
	printed := peak(kept[1]) / peak(kept[0])
	res, err := out.SignificanceRebuffers("BBA-1", "Control", metrics.Peak)
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol } // false for NaN
	if !near(printed, (1/4.55)/(4/5.5), 1e-12) || !near(res.Ratio, printed, 1e-9) || !near(math.Sqrt(res.Lo*res.Hi), printed, 1e-9) {
		t.Errorf("test %+v, √(lo·hi) = %v; printed ratio %v", res, math.Sqrt(res.Lo*res.Hi), printed)
	}
	note, err := pairedRatioNote(out, "BBA-1")
	if want := fmt.Sprintf(" (90%% paired CI on the ratio: %.2f–%.2f)", res.Lo, res.Hi); err != nil || note != want {
		t.Errorf("note %q, %v; want %q", note, err, want)
	}
}
