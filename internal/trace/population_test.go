package trace_test

import (
	"math/rand"
	"runtime"
	"testing"

	"bba/internal/abtest"
	"bba/internal/trace"
)

// TestTraceFootprintPopulation is TestTraceFootprint on the traces the
// campaign draws: over 2 000 abtest.DrawUser traces, rows of ≈ 65 bits
// cost at most 9 bytes a segment, header and padding included, where the
// 96 bits a row that every trace fits in cost 12.
func TestTraceFootprintPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var drawn [][]trace.Segment
	n := 0
	for i := 0; i < 2000; i++ {
		segs := abtest.DrawUser(abtest.PopulationConfig{}, i%12, 0, rng).Trace.Segments()
		drawn = append(drawn, segs)
		n += len(segs)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	for _, segs := range drawn {
		trace.MustNew(segs)
	}
	runtime.ReadMemStats(&mem)
	per := float64(mem.TotalAlloc-before) / float64(n)
	t.Logf("%d traces, %.1f segments each: %.2f B a segment", len(drawn), float64(n)/float64(len(drawn)), per)
	if per > 9 {
		t.Errorf("a drawn trace costs %.2f B a segment, want ≤ 9", per)
	}
}
