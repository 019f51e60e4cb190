package figures

import (
	"context"
	"fmt"
	"io"
)

// deviations records where the reproduction knowingly departs from the
// paper, kept with the generator so a regenerated EXPERIMENTS.md always
// carries it.
const deviations = `## Reading the comparison, and known deviations

Absolute numbers cannot match the paper: its substrate was the production
Netflix service over two 2013 weekends; ours is a synthetic population
calibrated to the paper's published variability statistics. The claims
checked here are the *shapes*: who wins, roughly by how much, and where.

1. **Rebuffer reductions run stronger than the paper's.** The paper
   reports 10-30% fewer rebuffers for the BBA family versus Control at
   peak; this reproduction lands at roughly 29-43%. Netflix's Control had
   five years of production tuning we cannot recover from a qualitative
   description; our Control (EWMA estimator, F(B) adjustment, panic floor,
   fast-down collapse detection) is competent but gives the buffer-based
   algorithms a somewhat larger win. The orderings bound < BBA-1 < BBA-2 <
   Control, improvements concentrated at peak, and off-peak statistically
   at the bound all hold. The paper's "BBA-1 better than BBA-0" does not:
   Figure 14's table has BBA-0 below BBA-1 at peak (0.161/h against
   0.189/h).

2. **Figures 15/17's small rate deltas flip sign.** The paper has Control
   50-120 kb/s above BBA-1 and roughly equal to BBA-2; here BBA-1/BBA-2
   end 50-120 kb/s above Control (2-4% of the average rate). Same cause as
   (1): in steady state our Control concedes a few percent of capacity to
   quantization and post-fade recovery that Netflix's did not. The
   startup-phase analysis matches the paper exactly (Control far above the
   buffer-based startup in every class), as do Figure 8's sign and
   magnitude and Figure 18's steady-state advantage for BBA-2.

3. **Figure 20's switch-rate gap is milder** (BBA-1/BBA-2 at ~1.1x Control
   versus the paper's larger multiple), and Figure 22's BBA-Others lands
   slightly *below* Control rather than indistinguishable. The directions
   — chunk map raises switching, smoothing removes it — reproduce.

4. **Rebuffer events are counted with an 8-second resume threshold**
   (playback restarts only once two chunks are buffered). Without it,
   capacity below R_min yields one rebuffer per chunk — an artifact no
   real player exhibits. The threshold applies identically to all groups.
`

// Entry names one reproducible experiment.
type Entry struct {
	// Name matches the benchmark suffix in the repository root, e.g.
	// "Fig07RebufferRateBBA0".
	Name string
	// Paper locates the artifact in the paper.
	Paper string
	// Gen produces the figure at a scale (ignored by single-session
	// generators).
	Gen func(Scale) (*Figure, error)
}

// All returns every reproduced figure, table statistic and ablation, in
// paper order followed by the ablations and extensions.
func All() []Entry {
	fixed := func(f func() (*Figure, error)) func(Scale) (*Figure, error) {
		return func(Scale) (*Figure, error) { return f() }
	}
	return []Entry{
		{"Fig01ThroughputVariability", "Figure 1", fixed(Fig01ThroughputVariability)},
		{"Sec2SessionVariability", "Sections 1–2 statistics", fixed(Sec2SessionVariability)},
		{"Fig04AggressiveRebuffer", "Figure 4", fixed(Fig04AggressiveRebuffer)},
		{"Fig07RebufferRateBBA0", "Figure 7(a,b)", Fig07RebufferRateBBA0},
		{"Fig08VideoRateBBA0", "Figure 8", Fig08VideoRateBBA0},
		{"Fig09SwitchRateBBA0", "Figure 9", Fig09SwitchRateBBA0},
		{"Fig10VBRChunkSizes", "Figure 10", fixed(Fig10VBRChunkSizes)},
		{"Fig12ReservoirCalculation", "Figure 12", fixed(Fig12Reservoir)},
		{"Fig14RebufferRateBBA1", "Figure 14(a,b)", Fig14RebufferRateBBA1},
		{"Fig15VideoRateBBA1", "Figure 15", Fig15VideoRateBBA1},
		{"Fig16StartupRamp", "Figure 16", fixed(Fig16StartupRamp)},
		{"Fig17VideoRateBBA2", "Figure 17", Fig17VideoRateBBA2},
		{"Fig18SteadyStateRate", "Figure 18", Fig18SteadyStateRate},
		{"Fig19RebufferRateBBA2", "Figure 19(a,b)", Fig19RebufferRateBBA2},
		{"Fig20SwitchRateChunkMap", "Figure 20", Fig20SwitchRateChunkMap},
		{"Fig21ChunkMapCrossings", "Figure 21", fixed(Fig21ChunkMapCrossings)},
		{"Fig22SwitchRateBBAOthers", "Figure 22", Fig22SwitchRateBBAOthers},
		{"Fig23VideoRateBBAOthers", "Figure 23", Fig23VideoRateBBAOthers},
		{"Fig24RebufferRateBBAOthers", "Figure 24(a,b)", Fig24RebufferRateBBAOthers},
		{"Sec4Significance", "Footnotes 4–5 p-values", Sec4Significance},
		{"AblationReservoir", "ablation (§5.1)", fixed(AblationReservoir)},
		{"AblationOutageProtection", "ablation (§7.1)", fixed(AblationOutageProtection)},
		{"AblationStartupThreshold", "ablation (§6)", fixed(AblationStartupThreshold)},
		{"AblationLookahead", "ablation (§7.2)", fixed(AblationLookahead)},
		{"SharedLinkFairness", "extension (§8)", fixed(SharedLinkFairness)},
		{"ShortVideoSessions", "extension (conclusion)", fixed(ShortVideoSessions)},
		{"SeekStartup", "extension (§6 seeks)", fixed(SeekStartup)},
		{"RelatedWorkComparison", "extension (§2.2/§8)", fixed(RelatedWorkComparison)},
		{"QoERanking", "extension (QoE, [7][11])", fixed(QoERanking)},
		{"OutageRobustness", "extension (§7.1 outages)", fixed(OutageRobustness)},
		{"BufferOccupancy", "extension (buffer dynamics)", fixed(BufferOccupancy)},
		{"ArenaMatrix", "extension (N-way arena)", ArenaMatrix},
	}
}

// Lookup returns the entry with the given name.
func Lookup(name string) (Entry, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// WriteMarkdownContext renders every figure at the given scale as the body of
// EXPERIMENTS.md: one section per artifact with the measured series summary
// and the paper-comparison notes. Generation fans out across cores (see
// GenerateAll); the rendered order is always registry order. A cancelled
// ctx stops the generation.
func WriteMarkdownContext(ctx context.Context, w io.Writer, scale Scale) error {
	scaleName := "quick"
	if scale == Full {
		scaleName = "full (3 days × 160 sessions/window per group)"
	}
	generated := GenerateAll(ctx, scale)
	for _, g := range generated {
		if g.Err != nil {
			return fmt.Errorf("figures: %s: %w", g.Entry.Name, g.Err)
		}
	}
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs. reproduction\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/abtest -experiments-md` at scale %q with seed %d.\n",
		scaleName, ExperimentSeed)
	fmt.Fprintf(w, "Regenerate any single artifact with `go test -bench=Benchmark<Name> -benchtime=1x .`\n\n")
	fmt.Fprintf(w, "%s\n", deviations)
	for _, g := range generated {
		fmt.Fprintf(w, "## %s — %s\n\n", g.Entry.Paper, g.Fig.Title)
		fmt.Fprintf(w, "Bench target: `Benchmark%s`\n\n", g.Entry.Name)
		fmt.Fprintf(w, "```\n")
		if err := g.Fig.WriteTable(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "```\n\n")
	}
	return nil
}
