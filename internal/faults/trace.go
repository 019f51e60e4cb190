package faults

import (
	"sort"
	"time"

	"bba/internal/trace"
)

// ApplyToTrace overlays the schedule's capacity faults — blackouts and
// collapses — onto base and returns the faulted trace. Blackouts force
// capacity to zero; collapses scale the base capacity (segment by segment,
// so a collapse over a varying trace stays proportional to it); where the
// two overlap the blackout wins. HTTP-path faults and latency spikes do
// not touch the trace — they are the injectors' business.
//
// Episodes extending past the base trace's explicit end are honoured by
// extending the final segment (the trace's persistence rule made
// explicit), so a schedule drawn over a longer horizon composes with any
// base.
func (s *Schedule) ApplyToTrace(base *trace.Trace) (*trace.Trace, error) {
	return s.ApplyWith(new(trace.Builder), base)
}

// ApplyWith is ApplyToTrace composing in b's recycled buffers; the
// returned trace shares nothing with b.
func (s *Schedule) ApplyWith(b *trace.Builder, base *trace.Trace) (*trace.Trace, error) {
	if s.Empty() {
		return base, nil
	}
	spans := s.capacitySpans()
	if len(spans) == 0 {
		return base, nil
	}
	b.Load(base)
	// Extend the base so every span fits strictly inside it — one second
	// past the last span, so the rate that persists beyond the trace is
	// the restored base rate, not the tail of a fault.
	last := spans[len(spans)-1]
	if end := last.Start + last.Duration; end >= b.Total() {
		b.Extend(end - b.Total() + time.Second)
	}
	if err := b.Override(spans); err != nil {
		return nil, err
	}
	return b.Trace()
}

// capacitySpans flattens the (possibly overlapping) blackout and collapse
// episodes into disjoint, start-ordered overrides — maximal intervals with
// a uniform capacity factor < 1, a blackout being factor (and rate) zero —
// taking the minimum factor where episodes overlap.
func (s *Schedule) capacitySpans() []trace.Override {
	type episode struct {
		start, end time.Duration
		factor     float64
	}
	var eps []episode
	for _, f := range s.faults {
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
		// Merge with the previous span when contiguous and same factor.
		if n := len(spans); n > 0 && spans[n-1].Start+spans[n-1].Duration == a && spans[n-1].Factor == factor {
			spans[n-1].Duration = b - spans[n-1].Start
			continue
		}
		spans = append(spans, trace.Override{Start: a, Duration: b - a, Factor: factor})
	}
	return spans
}
