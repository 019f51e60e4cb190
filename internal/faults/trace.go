package faults

import (
	"time"

	"bba/internal/trace"
)

// ApplyToTrace overlays the schedule's capacity faults — blackouts and
// collapses — onto base and returns the faulted trace. Blackouts force
// capacity to zero; collapses scale the base capacity (segment by segment,
// so a collapse over a varying trace stays proportional to it); where the
// two overlap the blackout wins. HTTP-path faults and latency spikes do
// not touch the trace — they are the injectors' business. A schedule with
// no capacity fault returns base itself.
//
// Episodes extending past the base trace's explicit end are honoured by
// extending the final segment (the trace's persistence rule made
// explicit), so a schedule drawn over a longer horizon composes with any
// base.
func (s *Schedule) ApplyToTrace(base *trace.Trace) (*trace.Trace, error) {
	return s.ApplyInto(new(trace.Trace), new(trace.Builder), base)
}

// ApplyInto is ApplyToTrace composing in b's recycled buffers and
// materialising the faulted trace into dst, which the caller owns and recycles across draws (see trace.Builder.Into). It
// returns dst, or base itself when the schedule has no capacity fault, in
// which case dst is untouched. dst may be base: base is read whole before
// dst is written, and only then.
func (s *Schedule) ApplyInto(dst *trace.Trace, b *trace.Builder, base *trace.Trace) (*trace.Trace, error) {
	if s.Empty() || len(s.spans) == 0 {
		return base, nil
	}
	b.Load(base)
	// Extend the base so every span fits strictly inside it — one second
	// past the last span, so the rate that persists beyond the trace is
	// the restored base rate, not the tail of a fault.
	last := s.spans[len(s.spans)-1]
	if end := last.Start + last.Duration; end >= b.Total() {
		b.Extend(end - b.Total() + time.Second)
	}
	if err := b.Override(s.spans); err != nil {
		return nil, err
	}
	if err := b.Into(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// capacitySpans flattens the (possibly overlapping) blackout and collapse
// episodes into s.spans: disjoint, start-ordered overrides — maximal
// intervals with a uniform capacity factor < 1, a blackout being factor
// (and rate) zero — taking the minimum factor where episodes overlap. It
// walks the episodes' distinct boundaries in order, reusing s.spans.
func (s *Schedule) capacitySpans() {
	spans := s.spans[:0]
	for a, ok := s.nextBound(-1); ok; {
		b, more := s.nextBound(a)
		if !more {
			break
		}
		factor := 1.0
		for _, f := range s.faults {
			if ff, ok := capacityFactor(f); ok && f.Start <= a && b <= f.End() && ff < factor {
				factor = ff
			}
		}
		switch n := len(spans); {
		case factor >= 1: // no capacity fault over [a, b)
		case n > 0 && spans[n-1].Start+spans[n-1].Duration == a && spans[n-1].Factor == factor:
			// Contiguous with the previous span at the same factor: extend it.
			spans[n-1].Duration = b - spans[n-1].Start
		default:
			spans = append(spans, trace.Override{Start: a, Duration: b - a, Factor: factor})
		}
		a = b
	}
	s.spans = spans
}

// nextBound returns the first blackout or collapse boundary (a start or an
// end) after t, and whether there is one.
func (s *Schedule) nextBound(t time.Duration) (time.Duration, bool) {
	var next time.Duration
	found := false
	for _, f := range s.faults {
		if _, ok := capacityFactor(f); !ok {
			continue
		}
		for _, at := range [2]time.Duration{f.Start, f.End()} {
			if at > t && (!found || at < next) {
				next, found = at, true
			}
		}
	}
	return next, found
}

// capacityFactor returns the capacity multiplier a blackout (0) or
// collapse (its Factor) imposes; ok is false for every other kind.
func capacityFactor(f Fault) (factor float64, ok bool) {
	switch f.Kind {
	case Blackout:
		return 0, true
	case Collapse:
		return f.Factor, true
	}
	return 0, false
}
