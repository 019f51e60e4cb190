package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bba/internal/units"
)

// Builder composes a trace — a Markov base or a loaded trace, override
// spans, a lengthened tail — in two recycled segment buffers. Trace
// materialises the result as a new trace, as New would; Into materialises
// it into a trace the caller owns and recycles. The segment buffers are
// scratch for the next composition: no trace shares them. The zero value
// is ready to use. A Builder is not safe for concurrent use.
type Builder struct {
	segs  []Segment // the composition so far
	spare []Segment // Override writes here, then the two swap
	total time.Duration
}

// Total returns the summed duration of the composition so far.
func (b *Builder) Total() time.Duration { return b.total }

// Load starts a composition from t's segments.
func (b *Builder) Load(t *Trace) {
	b.segs = t.appendSegments(b.segs[:0])
	b.total = t.total
}

// Markov starts a composition from a Markov-modulated base drawn from rng
// (see MarkovConfig).
func (b *Builder) Markov(cfg MarkovConfig, rng *rand.Rand) {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Hour
	}
	if cfg.MeanDwell <= 0 {
		cfg.MeanDwell = 10 * time.Second
	}
	if cfg.Base <= 0 {
		cfg.Base = 5 * units.Mbps
	}
	floor := cfg.Floor
	if floor <= 0 {
		floor = 64 * units.Kbps
	}
	ceiling := cfg.Ceiling
	if ceiling <= 0 {
		ceiling = 100 * units.Mbps
	}
	// Dwell times average MeanDwell, so a fresh buffer sized near the
	// expected count rarely grows.
	segs := b.segs[:0]
	if want := int(cfg.Duration/cfg.MeanDwell + cfg.Duration/cfg.MeanDwell/4 + 1); cap(segs) < want {
		segs = make([]Segment, 0, want)
	}
	var elapsed time.Duration
	for elapsed < cfg.Duration {
		factor := math.Exp(cfg.Sigma * rng.NormFloat64())
		rate := cfg.Base.Scale(factor).Clamp(floor, ceiling)
		dwell := units.SecondsToDuration(rng.ExpFloat64() * cfg.MeanDwell.Seconds())
		if dwell < 100*time.Millisecond {
			dwell = 100 * time.Millisecond
		}
		if elapsed+dwell > cfg.Duration {
			dwell = cfg.Duration - elapsed
		}
		segs = append(segs, Segment{Duration: dwell, Rate: rate})
		elapsed += dwell
	}
	b.segs, b.total = segs, cfg.Duration
}

// Extend lengthens the final segment by d — the trace's persistence rule
// made explicit.
func (b *Builder) Extend(d time.Duration) {
	b.segs[len(b.segs)-1].Duration += d
	b.total += d
}

// Override forces each override span of the composition to its rate (or
// scales it by its Factor). Overrides must be sorted by Start, must not
// overlap, must have positive durations and non-negative rates and
// factors, and must start within the composition; one that runs past the
// end lengthens it. The base is walked once, boundary by boundary.
func (b *Builder) Override(ovs []Override) error {
	src, out := b.segs, b.spare[:0]
	// src[i] starts at segStart; everything before cursor is written.
	var i int
	var segStart, cursor time.Duration
	// emit copies the base over [cursor, to), one segment per base
	// segment it crosses, scaling the rates by factor when it is positive.
	emit := func(to time.Duration, factor float64) {
		for cursor < to {
			for i < len(src)-1 && segStart+src[i].Duration <= cursor {
				segStart += src[i].Duration
				i++
			}
			end := segStart + src[i].Duration
			if end > to || i == len(src)-1 {
				end = to // the last segment persists past the end
			}
			rate := src[i].Rate
			if factor > 0 {
				rate = rate.Scale(factor)
			}
			out = append(out, Segment{Duration: end - cursor, Rate: rate})
			cursor = end
		}
	}
	for n, o := range ovs {
		switch {
		case o.Duration <= 0:
			return fmt.Errorf("trace: override %d has non-positive duration", n)
		case o.Rate < 0 || o.Factor < 0:
			return fmt.Errorf("trace: override %d has negative rate", n)
		case o.Start < cursor:
			return fmt.Errorf("trace: override %d overlaps a previous override", n)
		case o.Start > b.total:
			return fmt.Errorf("trace: override %d starts after trace end", n)
		}
		emit(o.Start, 0)
		if o.Factor > 0 {
			emit(o.Start+o.Duration, o.Factor)
		} else {
			out = append(out, Segment{Duration: o.Duration, Rate: o.Rate})
			cursor = o.Start + o.Duration
		}
	}
	emit(b.total, 0)
	b.segs, b.spare = out, src
	b.total = max(b.total, cursor)
	return nil
}

// Trace materialises the composition as a new Trace, its rows allocated
// exactly sized, as New allocates them.
func (b *Builder) Trace() (*Trace, error) { return New(b.segs) }

// Into materialises the composition into t in place, reusing t's backing
// array: the allocation-free form of Trace for a caller that owns t and
// rebuilds it per draw. Whatever t held before is overwritten, so nothing
// may still be reading it; t shares nothing with the Builder.
func (b *Builder) Into(t *Trace) error { return t.set(b.segs) }
