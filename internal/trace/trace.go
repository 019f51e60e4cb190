// Package trace models end-to-end network capacity as a function of time.
//
// The paper's whole argument starts from Figure 1: the throughput a video
// client observes varies wildly within a session (17 Mb/s down to 500 kb/s,
// a 75th/25th percentile ratio of 5.6). An ABR algorithm observes capacity
// only through per-chunk download durations, so a piecewise-constant
// capacity trace driven through the download integral reproduces exactly
// what a real algorithm would see.
//
// A Trace is a finite sequence of (duration, rate) segments; beyond its end
// the final rate persists, so traces compose naturally with sessions of any
// length. Generators produce the trace families used by the experiments:
// constant and step traces for the worked examples (Figures 4 and 16),
// Markov-modulated traces calibrated to the paper's variability statistics
// for the A/B population, and outage overlays for Section 7.1.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"bba/internal/units"
)

// Segment is a span of constant capacity.
type Segment struct {
	Duration time.Duration
	Rate     units.BitRate
}

// seg is one segment as a trace stores it, packed into three 32-bit
// words: where it starts, in nanoseconds, in the low 56 bits of mid:lo,
// and its rate, in bits per second, in the high 40 bits of hi:mid. Its end
// is the next segment's start (the trace's total for the last one), so a
// segment is 12 bytes and a trace is one backing array. set refuses a
// trace that runs past maxEnd or a rate above maxRate, so every segment a
// trace holds packs exactly. The words are fields, not an array, so an
// unpacked segment lives in registers; both accessors read mid:lo as one
// word, so a step that takes both loads it once.
type seg struct{ lo, mid, hi uint32 }

const (
	maxEnd  = 1<<56 - 1 // ns, ≈ 2.3 years
	maxRate = 1<<40 - 1 // b/s, ≈ 1.1 Tb/s
)

func packSeg(start time.Duration, rate units.BitRate) seg {
	return seg{uint32(start), uint32(start>>32) | uint32(rate)<<24, uint32(rate >> 8)}
}

func (s seg) start() time.Duration {
	return time.Duration(s.low() & maxEnd)
}

func (s seg) rate() units.BitRate {
	return units.BitRate(s.low()>>56 | uint64(s.hi)<<8)
}

func (s seg) low() uint64 { return uint64(s.lo) | uint64(s.mid)<<32 }

// Trace is a piecewise-constant capacity process. The zero value is
// unusable; construct traces with New or a generator. After the final
// segment the last rate persists indefinitely. Nothing in this package
// changes a trace New or a generator returns; only Builder.Into rewrites
// one, and only the trace its caller hands it.
type Trace struct {
	segs  []seg
	total time.Duration
}

// ErrEmpty is returned when constructing a trace with no segments.
var ErrEmpty = errors.New("trace: no segments")

// New builds a trace from segments. Segments with non-positive duration or
// negative rate are rejected, as are a rate above 2^40−1 b/s and a trace
// whose total reaches 2^56 ns; a zero rate is a valid outage.
func New(segments []Segment) (*Trace, error) {
	t := new(Trace)
	if err := t.set(segments); err != nil {
		return nil, err
	}
	return t, nil
}

// set rebuilds t from segments in place, reusing its backing array when it
// is large enough. On error t is left unusable.
func (t *Trace) set(segments []Segment) error {
	if len(segments) == 0 {
		return ErrEmpty
	}
	if cap(t.segs) < len(segments) {
		t.segs = make([]seg, len(segments), max(len(segments), 2*cap(t.segs)))
	}
	segs := t.segs[:len(segments)]
	t.segs = segs
	var total time.Duration
	for i, s := range segments {
		if s.Duration <= 0 || s.Rate < 0 || s.Rate > maxRate || s.Duration > maxEnd-total {
			return badSegment(i, s)
		}
		segs[i] = packSeg(total, s.Rate)
		total += s.Duration
	}
	t.total = total
	return nil
}

// badSegment says why set refused segment i, checking in set's order: a
// positive duration, a rate from 0 to maxRate, and an end no later than
// maxEnd.
func badSegment(i int, s Segment) error {
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("trace: segment %d has non-positive duration %v", i, s.Duration)
	case s.Rate < 0:
		return fmt.Errorf("trace: segment %d has negative rate %v", i, s.Rate)
	case s.Rate > maxRate:
		return fmt.Errorf("trace: segment %d has rate %v, above the %v a trace holds", i, s.Rate, units.BitRate(maxRate))
	default:
		return fmt.Errorf("trace: segment %d ends past the %v a trace holds", i, time.Duration(maxEnd))
	}
}

// MustNew is New but panics on error, for tests and literals.
func MustNew(segments []Segment) *Trace {
	t, err := New(segments)
	if err != nil {
		panic(err)
	}
	return t
}

// Total returns the summed duration of the explicit segments.
func (t *Trace) Total() time.Duration { return t.total }

// Segments returns a copy of the trace's segments.
func (t *Trace) Segments() []Segment {
	return t.appendSegments(make([]Segment, 0, len(t.segs)))
}

func (t *Trace) appendSegments(dst []Segment) []Segment {
	for i, s := range t.segs {
		dst = append(dst, Segment{Duration: t.end(i) - s.start(), Rate: s.rate()})
	}
	return dst
}

// end returns where segment i ends: the next segment's start, or the
// trace's total for the last one.
func (t *Trace) end(i int) time.Duration {
	if i+1 < len(t.segs) {
		return t.segs[i+1].start()
	}
	return t.total
}

// index returns the segment index containing time at (clamped to the last
// segment beyond the end).
func (t *Trace) index(at time.Duration) int {
	if at < 0 {
		return 0
	}
	// Find the first segment whose start is after at, then step back.
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].start() > at })
	if i == 0 {
		return 0
	}
	return i - 1
}

// RateAt returns the capacity at time at. Before zero it reports the first
// segment's rate; after the end, the last segment's rate.
func (t *Trace) RateAt(at time.Duration) units.BitRate {
	return t.segs[t.index(at)].rate()
}

// BytesBetween integrates capacity over [from, to] and returns the number of
// bytes deliverable in that window.
func (t *Trace) BytesBetween(from, to time.Duration) int64 {
	if to <= from {
		return 0
	}
	if from < 0 {
		from = 0
	}
	n, _ := t.bytesBetweenFrom(t.index(from), from, to)
	return n
}

// bytesBetweenFrom is the BytesBetween core, starting in segment i (which
// must contain from). It also returns the segment index it finished in, so
// a Cursor can resume from there. Both the stateless API and the Cursor run
// this exact code, so their results are bit-identical.
func (t *Trace) bytesBetweenFrom(i int, from, to time.Duration) (int64, int) {
	segs := t.segs
	last := len(segs) - 1
	var bits float64
	cursor := from
	rate := segs[i].rate()
	for cursor < to {
		segEnd := to // the last segment extends forever
		var next seg
		if i < last {
			next = segs[i+1]
			segEnd = next.start()
		}
		end := segEnd
		if end > to {
			end = to
		}
		bits += float64(rate) * (end - cursor).Seconds()
		cursor = end
		if i < last && cursor >= segEnd {
			rate = next.rate()
			i++
		}
	}
	return int64(bits / 8), i
}

// DownloadTime returns how long a transfer of n bytes starting at time
// start takes. If the trace ends in a zero-rate segment and the transfer
// cannot complete, it returns (0, false).
func (t *Trace) DownloadTime(start time.Duration, n int64) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	if start < 0 {
		start = 0
	}
	d, _, ok := t.downloadTimeFrom(t.index(start), start, n)
	return d, ok
}

// downloadTimeFrom is the DownloadTime core, starting in segment i (which
// must contain start). It also returns the segment index the transfer
// completed in, so a Cursor can resume from there. Both the stateless API
// and the Cursor run this exact code, so their results are bit-identical.
func (t *Trace) downloadTimeFrom(i int, start time.Duration, n int64) (time.Duration, int, bool) {
	remaining := float64(n * 8) // bits
	cursor := start
	segs := t.segs
	last := len(segs) - 1
	rate := float64(segs[i].rate())
	for ; i < last; i++ {
		next := segs[i+1]
		segEnd := next.start()
		capacity := rate * (segEnd - cursor).Seconds()
		if capacity >= remaining && rate > 0 {
			cursor += units.SecondsToDuration(remaining / rate)
			return cursor - start, i, true
		}
		remaining -= capacity
		cursor, rate = segEnd, float64(next.rate())
	}
	// The last segment extends forever.
	if rate <= 0 {
		return 0, i, false
	}
	cursor += units.SecondsToDuration(remaining / rate)
	return cursor - start, i, true
}

// Scale returns a new trace with every rate multiplied by f (f ≥ 0).
func (t *Trace) Scale(f float64) *Trace {
	segs := t.Segments()
	for i := range segs {
		segs[i].Rate = segs[i].Rate.Scale(f)
	}
	return MustNew(segs)
}

// Rates returns the per-segment rates in kb/s, weighted by sampling the
// trace once per sampleEvery interval. This matches how the paper computes
// summary variability statistics from regularly reported measurements.
func (t *Trace) Rates(sampleEvery time.Duration) []float64 {
	if sampleEvery <= 0 {
		sampleEvery = time.Second
	}
	var out []float64
	for at := time.Duration(0); at < t.total; at += sampleEvery {
		out = append(out, t.RateAt(at).Kilobits())
	}
	if len(out) == 0 {
		out = append(out, t.RateAt(0).Kilobits())
	}
	return out
}

// Constant returns a trace with a single fixed-rate segment.
func Constant(rate units.BitRate, d time.Duration) *Trace {
	return MustNew([]Segment{{Duration: d, Rate: rate}})
}

// Step returns a trace that runs at before until at, then switches to after
// for the remainder (total duration total). It reproduces the Figure 4
// scenario ("a video starts streaming at 3Mb/s over a 5Mb/s network; after
// 25s the available capacity drops to 350kb/s").
func Step(before, after units.BitRate, at, total time.Duration) *Trace {
	if at <= 0 {
		return Constant(after, total)
	}
	if at >= total {
		return Constant(before, total)
	}
	return MustNew([]Segment{
		{Duration: at, Rate: before},
		{Duration: total - at, Rate: after},
	})
}

// MarkovConfig parameterizes the Markov-modulated capacity generator used
// for the synthetic user population.
//
// The hidden state is a multiplicative factor applied to Base; on each
// transition a new factor is drawn log-normally with log-standard-deviation
// Sigma (so the marginal 75th/25th percentile ratio is exp(2·0.6745·Sigma)),
// and the state persists for an exponentially distributed dwell time. Sigma
// near 1.28 reproduces the paper's Figure 1 ratio of 5.6; Sigma near zero
// gives the stable off-peak environment of Section 4.2.
type MarkovConfig struct {
	Base      units.BitRate // median capacity
	Sigma     float64       // log-stddev of the state factor
	MeanDwell time.Duration // average state-holding time
	Duration  time.Duration // total trace length
	Floor     units.BitRate // capacity never drops below this (0 = 64 kb/s default)
	Ceiling   units.BitRate // capacity never exceeds this (0 = 100 Mb/s default)
}

// SigmaForQuartileRatio converts a desired 75th/25th percentile throughput
// ratio into the log-normal Sigma that produces it.
func SigmaForQuartileRatio(ratio float64) float64 {
	if ratio <= 1 {
		return 0
	}
	return math.Log(ratio) / (2 * 0.6745)
}

// Markov generates a Markov-modulated capacity trace. It is deterministic
// given rng's state.
func Markov(cfg MarkovConfig, rng *rand.Rand) *Trace {
	var b Builder
	b.Markov(cfg, rng)
	return MustNew(b.segs)
}

// Outage is a span of zero capacity overlaid on a base trace, modelling the
// Section 7.1 scenario of a DSL retrain or WiFi interference burst.
type Outage struct {
	Start    time.Duration
	Duration time.Duration
}

// Override forces a span of a base trace to a fixed rate. A zero Rate is an
// outage; a low non-zero Rate models a sustained congestion episode of the
// kind that produces the deep fades in Figure 1. With a positive Factor the
// span instead scales whatever the base was doing, segment by segment, and
// Rate is ignored — a throughput collapse that stays proportional to a
// varying base.
type Override struct {
	Start    time.Duration
	Duration time.Duration
	Rate     units.BitRate
	Factor   float64
}

// WithOutages returns a copy of base with capacity forced to zero during
// each outage. Outages must not overlap and must start within the trace.
func WithOutages(base *Trace, outages []Outage) (*Trace, error) {
	ov := make([]Override, len(outages))
	for i, o := range outages {
		ov[i] = Override{Start: o.Start, Duration: o.Duration}
	}
	return WithOverrides(base, ov)
}

// WithOverrides returns a copy of base with each override span forced to
// its rate. Overrides must not overlap, must have positive durations and
// non-negative rates, and must start within the trace.
func WithOverrides(base *Trace, overrides []Override) (*Trace, error) {
	sorted := make([]Override, len(overrides))
	copy(sorted, overrides)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var b Builder
	b.Load(base)
	if err := b.Override(sorted); err != nil {
		return nil, err
	}
	return b.Trace()
}

// Slice returns the sub-trace covering [from, to) of t; the usual
// persistence rule applies beyond to. from must lie within the trace and
// before to.
func (t *Trace) Slice(from, to time.Duration) (*Trace, error) {
	if from < 0 || from >= to || from >= t.total {
		return nil, fmt.Errorf("trace: bad slice [%v, %v) of a %v trace", from, to, t.total)
	}
	var segs []Segment
	cursor := from
	for cursor < to {
		i := t.index(cursor)
		segEnd := t.end(i)
		if i == len(t.segs)-1 && segEnd < to {
			segEnd = to
		}
		end := segEnd
		if end > to {
			end = to
		}
		segs = append(segs, Segment{Duration: end - cursor, Rate: t.segs[i].rate()})
		cursor = end
	}
	return New(segs)
}

// WriteCSV writes the trace as "duration_seconds,rate_bps" rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, s := range t.segs {
		if _, err := fmt.Fprintf(bw, "%.6f,%d\n", (t.end(i) - s.start()).Seconds(), int64(s.rate())); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. Blank lines and lines starting
// with '#' are ignored.
func ReadCSV(r io.Reader) (*Trace, error) {
	var segs []Segment
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields, got %d", line, len(parts))
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad duration: %w", line, err)
		}
		bps, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad rate: %w", line, err)
		}
		segs = append(segs, Segment{Duration: units.SecondsToDuration(secs), Rate: units.BitRate(bps)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(segs)
}
