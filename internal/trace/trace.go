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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
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

// A trace stores its segments as n rows of one width, bit-packed into one
// byte array: row i holds segment i's start, in nanoseconds, in its low sw
// bits and its rate, in bits per second, in the rw bits above. set sizes
// the two fields from the trace itself — sw from its total, rw from its
// peak rate — so a population trace needs about 65 bits a segment where a
// fixed layout wide enough for every trace needs 96. A segment ends where
// the next one starts (the last at the trace's total). No field is wider
// than 56 bits, so one unaligned 64-bit load at the field's first byte,
// shifted by at most 7, holds all of it; the array ends 8 bytes after
// byte ⌊n·w/8⌋, so that load stays inside it for every field, a
// zero-width one at the very end included. set refuses a trace that runs
// past maxEnd or a rate above maxRate, so every field fits its width, and
// one of more than maxSegments segments, so n fits its 32 bits.
const (
	maxEnd      = 1<<56 - 1 // ns, ≈ 2.3 years
	maxRate     = 1<<40 - 1 // b/s, ≈ 1.1 Tb/s
	maxSegments = math.MaxInt32
)

// Trace is a piecewise-constant capacity process. The zero value is
// unusable; construct traces with New or a generator. After the final
// segment the last rate persists indefinitely. Nothing in this package
// changes a trace New or a generator returns; only Builder.Into rewrites
// one, and only the trace its caller hands it.
type Trace struct {
	rows   []byte // n packed rows, then padding for the last field's load
	total  time.Duration
	n      int32
	sw, rw uint8 // bits of start and of rate in a row
}

// field returns the field of mask's width at bit offset off of rows. The
// eight bytes are sliced with their capacity, which spares the load the
// pointer masking an open-ended slice needs.
func field(rows []byte, off uint, mask uint64) uint64 {
	k := off >> 3
	return binary.LittleEndian.Uint64(rows[k:k+8:k+8]) >> (off & 7) & mask
}

func (t *Trace) start(i int) time.Duration {
	return time.Duration(field(t.rows, uint(i)*uint(t.sw+t.rw), 1<<t.sw-1))
}

func (t *Trace) rate(i int) units.BitRate {
	return units.BitRate(field(t.rows, uint(i)*uint(t.sw+t.rw)+uint(t.sw), 1<<t.rw-1))
}

// span is segment i decoded: where it starts and ends, and its rate. The
// last segment ends at forever, so a time in it is below its end however
// late it is; the integration cores still stop at the last segment by its
// index, since the persistence rule, not its end, is what makes it last.
type span struct {
	i          int
	start, end time.Duration
	rate       units.BitRate
}

const forever = time.Duration(math.MaxInt64)

// span decodes segment i.
func (t *Trace) span(i int) span { return t.next(span{i: i - 1, end: t.start(i)}) }

// next decodes the segment after s, which must not be the last, from the
// boundary s already holds: one crossing, two fields.
func (t *Trace) next(s span) span {
	i, w := s.i+1, uint(t.sw+t.rw)
	off := uint(i) * w
	n := span{i: i, start: s.end, end: forever, rate: units.BitRate(field(t.rows, off+uint(t.sw), 1<<t.rw-1))}
	if i+1 < int(t.n) {
		n.end = time.Duration(field(t.rows, off+w, 1<<t.sw-1))
	}
	return n
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
// is large enough. On error t is left as it was.
func (t *Trace) set(segments []Segment) error {
	l, err := measure(segments)
	if err != nil {
		return err
	}
	if cap(t.rows) < l.size {
		t.rows = make([]byte, l.size, max(l.size, 2*cap(t.rows)))
	}
	t.write(t.rows[:l.size], segments, l)
	return nil
}

// layout is the shape of a trace's rows: its total, the bits of start and
// of rate in a row, and the bytes the rows and their padding take.
type layout struct {
	total  time.Duration
	sw, rw uint
	size   int
}

// measure checks segments and returns the layout of the trace they make.
func measure(segments []Segment) (layout, error) {
	if len(segments) == 0 {
		return layout{}, ErrEmpty
	}
	if len(segments) > maxSegments {
		return layout{}, fmt.Errorf("trace: %d segments, more than the %d a trace holds", len(segments), maxSegments)
	}
	var total time.Duration
	var peak units.BitRate
	for i, s := range segments {
		if !fits(s, total) {
			return layout{}, fmt.Errorf("trace: %w", badSegment(i, s))
		}
		total += s.Duration
		peak = max(peak, s.Rate)
	}
	sw, rw := uint(bits.Len64(uint64(total))), uint(bits.Len64(uint64(peak)))
	return layout{total: total, sw: sw, rw: rw, size: len(segments)*int(sw+rw)/8 + 8}, nil
}

// write makes t the trace of segments, measured as l, packed into rows,
// which must be l.size bytes long.
func (t *Trace) write(rows []byte, segments []Segment, l layout) {
	// Rows go out through a 64-bit accumulator: each field joins the
	// fewer than 8 bits still pending, and the 8 bytes from the first
	// pending one are stored. The stores cover every byte up to the last
	// field's, so nothing of a previous trace shows in any field; the
	// padding after it is only ever loaded to be masked off.
	var acc uint64
	var pending, at uint
	put := func(v uint64, width uint) {
		acc |= v << pending
		pending += width
		binary.LittleEndian.PutUint64(rows[at:at+8:at+8], acc)
		at, acc, pending = at+pending>>3, acc>>(pending&^7), pending&7
	}
	var start time.Duration
	for _, s := range segments {
		put(uint64(start), l.sw)
		put(uint64(s.Rate), l.rw)
		start += s.Duration
	}
	t.rows, t.n, t.total, t.sw, t.rw = rows, int32(len(segments)), l.total, uint8(l.sw), uint8(l.rw)
}

// fits reports whether a trace holds s as the segment after total: a
// positive duration, a rate from 0 to maxRate, and an end no later than
// maxEnd.
func fits(s Segment, total time.Duration) bool {
	return s.Duration > 0 && s.Rate >= 0 && s.Rate <= maxRate && s.Duration <= maxEnd-total
}

// badSegment says why a trace refused s as its segment i, checking in
// fits's order.
func badSegment(i int, s Segment) error {
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("segment %d has non-positive duration %v", i, s.Duration)
	case s.Rate < 0:
		return fmt.Errorf("segment %d has negative rate %v", i, s.Rate)
	case s.Rate > maxRate:
		return fmt.Errorf("segment %d has rate %v, above the %v a trace holds", i, s.Rate, units.BitRate(maxRate))
	default:
		return fmt.Errorf("segment %d ends past the %v a trace holds", i, time.Duration(maxEnd))
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
func (t *Trace) Total() time.Duration {
	return t.total
}

// Segments returns a copy of the trace's segments.
func (t *Trace) Segments() []Segment {
	return t.appendSegments(make([]Segment, 0, t.n))
}

func (t *Trace) appendSegments(dst []Segment) []Segment {
	rows, sw, w := t.rows, uint(t.sw), uint(t.sw+t.rw)
	smask, rmask := uint64(1)<<t.sw-1, uint64(1)<<t.rw-1
	var start time.Duration // segment 0's
	rate := units.BitRate(field(rows, sw, rmask))
	for off := w; off < uint(t.n)*w; off += w {
		end := time.Duration(field(rows, off, smask))
		dst = append(dst, Segment{Duration: end - start, Rate: rate})
		start, rate = end, units.BitRate(field(rows, off+sw, rmask))
	}
	return append(dst, Segment{Duration: t.total - start, Rate: rate})
}

// index returns the segment index containing time at (clamped to the last
// segment beyond the end): the last segment starting at or before at.
func (t *Trace) index(at time.Duration) int {
	if at < 0 {
		return 0
	}
	rows, w, mask := t.rows, uint(t.sw+t.rw), uint64(1)<<t.sw-1
	// Segment 0 starts at 0, so segment lo starts at or before at
	// throughout; every segment from hi on starts after it.
	lo, hi := 0, int(t.n)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if time.Duration(field(rows, uint(mid)*w, mask)) <= at {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// RateAt returns the capacity at time at. Before zero it reports the first
// segment's rate; after the end, the last segment's rate.
func (t *Trace) RateAt(at time.Duration) units.BitRate {
	return t.rate(t.index(at))
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
	n, _ := t.bytesBetweenFrom(t.span(t.index(from)), from, to)
	return n
}

// bytesBetweenFrom is the BytesBetween core, starting in segment s (which
// must contain from). It also returns the segment it finished in, so a
// Cursor can resume from there. Both the stateless API and the Cursor run
// this exact code, so their results are bit-identical.
func (t *Trace) bytesBetweenFrom(s span, from, to time.Duration) (int64, span) {
	var sum float64 // bits
	cursor := from
	for cursor < to {
		end := min(s.end, to) // the last segment extends forever
		sum += float64(s.rate) * (end - cursor).Seconds()
		cursor = end
		if cursor >= s.end && s.i+1 < int(t.n) {
			s = t.next(s)
		}
	}
	return int64(sum / 8), s
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
	d, _, ok := t.downloadTimeFrom(t.span(t.index(start)), start, n)
	return d, ok
}

// downloadTimeFrom is the DownloadTime core, starting in segment s (which
// must contain start). It also returns the segment the transfer completed
// in, so a Cursor can resume from there. Both the stateless API and the
// Cursor run this exact code, so their results are bit-identical.
func (t *Trace) downloadTimeFrom(s span, start time.Duration, n int64) (time.Duration, span, bool) {
	remaining := float64(n * 8) // bits
	cursor := start
	rate := float64(s.rate)
	for s.i+1 < int(t.n) {
		capacity := rate * (s.end - cursor).Seconds()
		if capacity >= remaining && rate > 0 {
			cursor += units.SecondsToDuration(remaining / rate)
			return cursor - start, s, true
		}
		remaining -= capacity
		cursor = s.end
		s = t.next(s)
		rate = float64(s.rate)
	}
	// The last segment extends forever.
	if rate <= 0 {
		return 0, s, false
	}
	cursor += units.SecondsToDuration(remaining / rate)
	return cursor - start, s, true
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

// Override forces a span of a base trace to a fixed rate. A zero Rate is an
// outage (the Section 7.1 DSL retrain or WiFi interference burst); a low
// non-zero Rate models a sustained congestion episode of the kind that
// produces the deep fades in Figure 1. With a positive Factor the
// span instead scales whatever the base was doing, segment by segment, and
// Rate is ignored — a throughput collapse that stays proportional to a
// varying base.
type Override struct {
	Start    time.Duration
	Duration time.Duration
	Rate     units.BitRate
	Factor   float64
}

// ReadCSV parses a trace from "duration_seconds,rate_bps" rows. Blank lines
// and lines starting with '#' are ignored. A row the trace refuses is
// reported by its line.
func ReadCSV(r io.Reader) (*Trace, error) {
	var segs []Segment
	var total time.Duration
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
		// Checked before converting: a NaN has no Duration.
		if !(secs > 0 && secs <= math.MaxFloat64) {
			return nil, fmt.Errorf("trace: line %d: duration %v s is not a positive finite number", line, secs)
		}
		bps, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad rate: %w", line, err)
		}
		s := Segment{Duration: units.SecondsToDuration(secs), Rate: units.BitRate(bps)}
		if !fits(s, total) {
			return nil, fmt.Errorf("trace: line %d: %w", line, badSegment(len(segs), s))
		}
		segs = append(segs, s)
		total += s.Duration
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(segs)
}
