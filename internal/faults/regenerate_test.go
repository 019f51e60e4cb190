package faults

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"bba/internal/trace"
	"bba/internal/units"
)

// refCapacitySpans is capacitySpans as it was before the schedule derived
// its spans in place — episodes and sorted boundaries in fresh slices —
// kept verbatim as the oracle.
func refCapacitySpans(fs []Fault) []trace.Override {
	type episode struct {
		start, end time.Duration
		factor     float64
	}
	var eps []episode
	for _, f := range fs {
		switch f.Kind {
		case Blackout:
			eps = append(eps, episode{f.Start, f.End(), 0})
		case Collapse:
			eps = append(eps, episode{f.Start, f.End(), f.Factor})
		}
	}
	if len(eps) == 0 {
		return nil
	}
	bounds := make([]time.Duration, 0, 2*len(eps))
	for _, e := range eps {
		bounds = append(bounds, e.start, e.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	var spans []trace.Override
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if a == b {
			continue
		}
		factor := 1.0
		for _, e := range eps {
			if e.start <= a && b <= e.end && e.factor < factor {
				factor = e.factor
			}
		}
		if factor >= 1 {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1].Start+spans[n-1].Duration == a && spans[n-1].Factor == factor {
			spans[n-1].Duration = b - spans[n-1].Start
			continue
		}
		spans = append(spans, trace.Override{Start: a, Duration: b - a, Factor: factor})
	}
	return spans
}

// TestRegenerateMatchesGenerate redraws one schedule in place across
// randomized weather — heavy, overlapping, touching, and HTTP-only — and
// requires, every time, the episodes a fresh Generate draws, the capacity
// spans the old flattening derived, and the trace a fresh schedule
// applies; then that a warmed redraw-and-apply allocates nothing.
func TestRegenerateMatchesGenerate(t *testing.T) {
	configs := []ScheduleConfig{
		DefaultScheduleConfig(),
		{Horizon: 20 * time.Minute,
			Blackouts: EpisodeConfig{PerHour: 20, MinDuration: 5 * time.Second, MaxDuration: 90 * time.Second},
			Collapses: EpisodeConfig{PerHour: 30, MinDuration: 10 * time.Second, MaxDuration: 3 * time.Minute}},
		// Fixed lengths and a fixed factor, so boundaries and factors coincide.
		{Horizon: 10 * time.Minute, CollapseMin: 0.5, CollapseMax: 0.5,
			Blackouts: EpisodeConfig{PerHour: 60, MinDuration: 30 * time.Second},
			Collapses: EpisodeConfig{PerHour: 60, MinDuration: 30 * time.Second}},
		{ServerErrors: EpisodeConfig{PerHour: 5, MinDuration: 5 * time.Second}},
	}
	base := trace.Markov(trace.MarkovConfig{Base: 3 * units.Mbps, Sigma: 0.7, MeanDwell: 8 * time.Second, Duration: 12 * time.Minute},
		rand.New(rand.NewSource(1)))
	var s Schedule
	var dst trace.Trace
	var b trace.Builder
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < 400; seed++ {
		cfg := configs[seed%int64(len(configs))]
		s.Regenerate(configs[rng.Intn(len(configs))], rng) // leave other weather in the storage first
		s.Regenerate(cfg, rand.New(rand.NewSource(seed)))
		fresh := GenerateSeeded(cfg, seed)
		if !reflect.DeepEqual(s.Faults(), fresh.Faults()) {
			t.Fatalf("seed %d: a redrawn schedule's episodes differ from a fresh one's", seed)
		}
		if want := refCapacitySpans(fresh.faults); !slices.Equal(s.spans, want) {
			t.Fatalf("seed %d: capacity spans\n %+v\nreference\n %+v", seed, s.spans, want)
		}
		got, err := s.ApplyInto(&dst, &b, base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.ApplyToTrace(base)
		if err != nil {
			t.Fatal(err)
		}
		if (got == base) != (want == base) || !reflect.DeepEqual(got.Segments(), want.Segments()) {
			t.Fatalf("seed %d: the trace applied in place differs from a fresh schedule's", seed)
		}
	}

	// Every seed below was drawn above, so the storage is warm for each.
	var in SessionInjector
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		rng.Seed(seed)
		s.Regenerate(configs[seed%int64(len(configs))], rng)
		if _, err := s.ApplyInto(&dst, &b, base); err != nil {
			t.Fatal(err)
		}
		in.Reset(&s, seed)
		seed++
	})
	if allocs != 0 {
		t.Errorf("a warmed redraw, apply and re-arm allocated %v times, want 0", allocs)
	}
}
