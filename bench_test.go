package bba

// The benchmark harness regenerates every figure of the paper's evaluation
// plus the design-choice ablations. Each benchmark runs its figure
// generator and, once per process, prints the reproduced table with its
// paper-comparison notes, so
//
//	go test -bench=. -benchmem
//
// both times the generators and emits the full reproduction report. A
// single figure:
//
//	go test -bench=BenchmarkFig16StartupRamp -benchtime=1x
//
// The A/B figures share one cached weekend experiment (the first of them
// pays its cost), mirroring how the paper's figures all read from the same
// deployment weekend. Scale is controlled with -bba-scale=full (default
// quick).
import (
	"context"
	"flag"
	"os"
	"sync"
	"testing"

	"bba/internal/figures"
)

var fullScale = flag.Bool("bba-scale-full", false, "run figure benchmarks at full weekend scale")

func benchScale() figures.Scale {
	if *fullScale {
		return figures.Full
	}
	return figures.Quick
}

var printedMu sync.Mutex
var printed = map[string]bool{}

// benchFigure runs one figure generator b.N times and prints its table the
// first time.
func benchFigure(b *testing.B, name string) {
	entry, ok := figures.Lookup(name)
	if !ok {
		b.Fatalf("unknown figure %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := entry.Gen(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		printedMu.Lock()
		if !printed[name] {
			printed[name] = true
			b.StopTimer()
			fig.WriteTable(os.Stdout)
			os.Stdout.WriteString("\n")
			b.StartTimer()
		}
		printedMu.Unlock()
	}
}

func BenchmarkFig01ThroughputVariability(b *testing.B) {
	benchFigure(b, "Fig01ThroughputVariability")
}

func BenchmarkSec2SessionVariability(b *testing.B) {
	benchFigure(b, "Sec2SessionVariability")
}

func BenchmarkFig04AggressiveRebuffer(b *testing.B) {
	benchFigure(b, "Fig04AggressiveRebuffer")
}

func BenchmarkFig07RebufferRateBBA0(b *testing.B) {
	benchFigure(b, "Fig07RebufferRateBBA0")
}

func BenchmarkFig08VideoRateBBA0(b *testing.B) {
	benchFigure(b, "Fig08VideoRateBBA0")
}

func BenchmarkFig09SwitchRateBBA0(b *testing.B) {
	benchFigure(b, "Fig09SwitchRateBBA0")
}

func BenchmarkFig10VBRChunkSizes(b *testing.B) {
	benchFigure(b, "Fig10VBRChunkSizes")
}

func BenchmarkFig12ReservoirCalculation(b *testing.B) {
	benchFigure(b, "Fig12ReservoirCalculation")
}

func BenchmarkFig14RebufferRateBBA1(b *testing.B) {
	benchFigure(b, "Fig14RebufferRateBBA1")
}

func BenchmarkFig15VideoRateBBA1(b *testing.B) {
	benchFigure(b, "Fig15VideoRateBBA1")
}

func BenchmarkFig16StartupRamp(b *testing.B) {
	benchFigure(b, "Fig16StartupRamp")
}

func BenchmarkFig17VideoRateBBA2(b *testing.B) {
	benchFigure(b, "Fig17VideoRateBBA2")
}

func BenchmarkFig18SteadyStateRate(b *testing.B) {
	benchFigure(b, "Fig18SteadyStateRate")
}

func BenchmarkFig19RebufferRateBBA2(b *testing.B) {
	benchFigure(b, "Fig19RebufferRateBBA2")
}

func BenchmarkFig20SwitchRateChunkMap(b *testing.B) {
	benchFigure(b, "Fig20SwitchRateChunkMap")
}

func BenchmarkFig21ChunkMapCrossings(b *testing.B) {
	benchFigure(b, "Fig21ChunkMapCrossings")
}

func BenchmarkFig22SwitchRateBBAOthers(b *testing.B) {
	benchFigure(b, "Fig22SwitchRateBBAOthers")
}

func BenchmarkFig23VideoRateBBAOthers(b *testing.B) {
	benchFigure(b, "Fig23VideoRateBBAOthers")
}

func BenchmarkFig24RebufferRateBBAOthers(b *testing.B) {
	benchFigure(b, "Fig24RebufferRateBBAOthers")
}

func BenchmarkSec4Significance(b *testing.B) {
	benchFigure(b, "Sec4Significance")
}

func BenchmarkAblationReservoir(b *testing.B) {
	benchFigure(b, "AblationReservoir")
}

func BenchmarkAblationOutageProtection(b *testing.B) {
	benchFigure(b, "AblationOutageProtection")
}

func BenchmarkAblationStartupThreshold(b *testing.B) {
	benchFigure(b, "AblationStartupThreshold")
}

func BenchmarkAblationLookahead(b *testing.B) {
	benchFigure(b, "AblationLookahead")
}

func BenchmarkSharedLinkFairness(b *testing.B) {
	benchFigure(b, "SharedLinkFairness")
}

// BenchmarkSessionSimulation measures the core engine's raw speed: one
// 18-minute BBA-2 session over a variable trace per iteration.
func BenchmarkSessionSimulation(b *testing.B) {
	video, err := NewVBRTitle("bench", 450, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := VariableTrace(4*Mbps, 3, 30*60e9, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSession(SessionConfig{
			Algorithm:  NewBBA2(),
			Video:      video,
			Trace:      tr,
			WatchLimit: 18 * 60e9,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSimulationObserved is the telemetry overhead guard: the
// same session as BenchmarkSessionSimulation with a minimal (counting)
// observer attached. BenchmarkSessionSimulation above is the nil-observer
// fast path — no event values are built and no buffer state is polled —
// and the acceptance bar is that its time stays within 2% of the
// uninstrumented engine. Compare the two benchmarks to read off the cost
// of full instrumentation (event construction + one dynamic dispatch per
// event, typically a few percent).
func BenchmarkSessionSimulationObserved(b *testing.B) {
	video, err := NewVBRTitle("bench", 450, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := VariableTrace(4*Mbps, 3, 30*60e9, 2)
	var events int
	obs := ObserverFunc(func(Event) { events++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSession(SessionConfig{
			Algorithm:  NewBBA2(),
			Video:      video,
			Trace:      tr,
			WatchLimit: 18 * 60e9,
			Observer:   obs,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if events == 0 {
		b.Fatal("observer saw no events")
	}
}

// TestSessionSimulationAllocs pins the hot path's allocation count. The
// engine runs a full 18-minute session on a title already planned in 3
// heap allocations (the algorithm, the Result and its preallocated rate
// record, which indexes the stream's own ladder; the reservoir plan is the
// title's shared one, built by AllocsPerRun's warm-up call; trace cursor
// and plan allocation-free per chunk). A session building its own plan
// again (5) or a per-chunk allocation slipping back in (hundreds) exceeds
// the ceiling.
func TestSessionSimulationAllocs(t *testing.T) {
	video, err := NewVBRTitle("bench", 450, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := VariableTrace(4*Mbps, 3, 30*60e9, 2)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunSession(SessionConfig{
			Algorithm:  NewBBA2(),
			Video:      video,
			Trace:      tr,
			WatchLimit: 18 * 60e9,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("session simulation made %.0f allocations, ceiling is 3", allocs)
	}
}

// BenchmarkGenerateAllFigures times the parallel figure fan-out: every
// registered generator across the available cores, the shared weekend
// experiment computed once (single-flight) and amortized across iterations.
func BenchmarkGenerateAllFigures(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range figures.GenerateAll(context.Background(), benchScale()) {
			if g.Err != nil {
				b.Fatal(g.Err)
			}
		}
	}
}

func BenchmarkShortVideoSessions(b *testing.B) {
	benchFigure(b, "ShortVideoSessions")
}

func BenchmarkSeekStartup(b *testing.B) {
	benchFigure(b, "SeekStartup")
}

func BenchmarkRelatedWorkComparison(b *testing.B) {
	benchFigure(b, "RelatedWorkComparison")
}

func BenchmarkQoERanking(b *testing.B) {
	benchFigure(b, "QoERanking")
}

func BenchmarkBufferOccupancy(b *testing.B) {
	benchFigure(b, "BufferOccupancy")
}

func BenchmarkOutageRobustness(b *testing.B) {
	benchFigure(b, "OutageRobustness")
}

func BenchmarkArenaMatrix(b *testing.B) {
	benchFigure(b, "ArenaMatrix")
}
