package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"bba/internal/units"
)

// The reference layout: the 40-byte segment — start, end and the float
// rate stored beside each (duration, rate) — with New and the two
// integration cores as they were written against it, kept
// verbatim as the oracle the packed layout, rows as wide as each trace
// needs, is held to, bit for bit.

type refSeg struct {
	Segment
	start, end time.Duration // end = start + Duration
	rateF      float64       // float64(Rate)
}

type refTrace struct {
	segs  []refSeg
	total time.Duration
}

func refNew(segments []Segment) (*refTrace, error) {
	if len(segments) == 0 {
		return nil, ErrEmpty
	}
	segs := make([]refSeg, len(segments))
	var total time.Duration
	for i, s := range segments {
		if s.Duration <= 0 {
			return nil, fmt.Errorf("trace: segment %d has non-positive duration %v", i, s.Duration)
		}
		if s.Rate < 0 {
			return nil, fmt.Errorf("trace: segment %d has negative rate %v", i, s.Rate)
		}
		d := &segs[i]
		d.Segment, d.start = s, total
		total += s.Duration
		d.end, d.rateF = total, float64(s.Rate)
	}
	return &refTrace{segs: segs, total: total}, nil
}

func (t *refTrace) index(at time.Duration) int {
	if at < 0 {
		return 0
	}
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].start > at })
	if i == 0 {
		return 0
	}
	return i - 1
}

func (t *refTrace) RateAt(at time.Duration) units.BitRate {
	return t.segs[t.index(at)].Rate
}

func (t *refTrace) BytesBetween(from, to time.Duration) int64 {
	if to <= from {
		return 0
	}
	if from < 0 {
		from = 0
	}
	n, _ := t.bytesBetweenFrom(t.index(from), from, to)
	return n
}

func (t *refTrace) bytesBetweenFrom(i int, from, to time.Duration) (int64, int) {
	var bits float64
	cursor := from
	for cursor < to {
		segEnd := t.total
		if i < len(t.segs)-1 {
			segEnd = t.segs[i].end
		} else {
			segEnd = to // last segment extends forever
		}
		end := segEnd
		if end > to {
			end = to
		}
		bits += float64(t.segs[i].Rate) * (end - cursor).Seconds()
		cursor = end
		if i < len(t.segs)-1 && cursor >= t.segs[i].end {
			i++
		}
	}
	return int64(bits / 8), i
}

func (t *refTrace) DownloadTime(start time.Duration, n int64) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	if start < 0 {
		start = 0
	}
	d, _, ok := t.downloadTimeFrom(t.index(start), start, n)
	return d, ok
}

func (t *refTrace) downloadTimeFrom(i int, start time.Duration, n int64) (time.Duration, int, bool) {
	remaining := float64(n * 8) // bits
	cursor := start
	last := len(t.segs) - 1
	for {
		rate := t.segs[i].rateF
		if i == last {
			if rate <= 0 {
				return 0, i, false
			}
			cursor += units.SecondsToDuration(remaining / rate)
			return cursor - start, i, true
		}
		segEnd := t.segs[i].end
		span := (segEnd - cursor).Seconds()
		capacity := rate * span
		if capacity >= remaining && rate > 0 {
			cursor += units.SecondsToDuration(remaining / rate)
			return cursor - start, i, true
		}
		remaining -= capacity
		cursor = segEnd
		i++
	}
}

func (t *refTrace) Segments() []Segment {
	out := make([]Segment, 0, len(t.segs))
	for i := range t.segs {
		out = append(out, t.segs[i].Segment)
	}
	return out
}

// decodeLayout turns fuzz bytes into a segment list and a query stream:
// 16-bit fields, durations in 10 ms ticks (some a single nanosecond, so
// boundaries land between ticks), rates in kb/s including zero. A field of
// 60 000 or more instead draws a long segment, below 2^52 ns, so starts
// fill the widest start field, or a rate anywhere in [0, 2^40) b/s;
// sixteen of either stay inside the layout's range. Segments may be
// invalid, so New's error path is compared too.
func decodeLayout(data []byte) (segs []Segment, queries []uint16) {
	next := func() int {
		if len(data) < 2 {
			return 0
		}
		v := binary.LittleEndian.Uint16(data)
		data = data[2:]
		return int(v)
	}
	const wide = 60000 // a field this large draws from the wide range
	for n := next()%16 + 1; n > 0; n-- {
		var d time.Duration
		if v := next(); v >= wide {
			d = time.Duration(next())<<36 | time.Duration(next())
		} else if d = time.Duration(v%3000) * 10 * time.Millisecond; d == 0 && next()%2 == 0 {
			d = time.Nanosecond
		}
		var rate units.BitRate
		if v := next(); v >= wide {
			rate = units.BitRate(next())<<24 | units.BitRate(next())<<8 | units.BitRate(next()&0xff)
		} else {
			rate = units.BitRate(v%5000) * units.Kbps
		}
		if next()%7 == 0 {
			rate = 0
		}
		segs = append(segs, Segment{Duration: d, Rate: rate})
	}
	for len(data) >= 2 {
		queries = append(queries, uint16(next()))
	}
	return segs, queries
}

// encodeLayout is decodeLayout's inverse for the segments it can draw: the
// fuzz input that decodes to segs, then queries.
func encodeLayout(segs []Segment, queries ...uint16) []byte {
	const tick, wide = 10 * time.Millisecond, 60000
	fields := []uint16{uint16(len(segs) - 1)}
	for _, s := range segs {
		switch d := s.Duration; {
		case d == time.Nanosecond:
			fields = append(fields, 0, 0)
		case d > 0 && d%tick == 0 && d/tick < 3000:
			fields = append(fields, uint16(d/tick))
		case d>>36 < 1<<16 && d&(1<<36-1) < 1<<16:
			fields = append(fields, wide, uint16(d>>36), uint16(d))
		default:
			panic(fmt.Sprintf("encodeLayout: duration %d has no encoding", d))
		}
		switch r := s.Rate; {
		case r == 0:
			fields = append(fields, 0, 0)
		case r%units.Kbps == 0 && r/units.Kbps < 5000:
			fields = append(fields, uint16(r/units.Kbps), 1)
		default:
			fields = append(fields, wide, uint16(r>>24), uint16(r>>8), uint16(r&0xff), 1)
		}
	}
	var out []byte
	for _, v := range append(fields, queries...) {
		out = binary.LittleEndian.AppendUint16(out, v)
	}
	return out
}

// edgeLayouts are the traces at the edges of the packed reader, run by
// TestTraceLayoutMatchesReference and seeded into FuzzTraceLayout, with
// the bits a row of each takes.
var edgeLayouts = []struct {
	name string
	w    int
	segs []Segment
}{
	// No rate field: a zero-width load at the very end of the rows.
	{"all rates zero", 28, repeatSegment(5, 30*time.Millisecond, 0)},
	// 16 rows of 28 and of 32 bits: the rows end on a 64-bit word, with
	// and without a rate field.
	{"word-aligned end, no rate", 28, repeatSegment(16, 10*time.Millisecond, 0)},
	{"word-aligned end", 32, repeatSegment(16, 10*time.Millisecond, 15)},
	// A total just under 2^56 ns and a rate of 2^40−1 b/s.
	{"widest row", 96, append(repeatSegment(15, 1<<52-1<<36+1<<16-1, units.Mbps), Segment{Duration: 1<<52 - 1<<36 + 1<<16 - 1, Rate: maxRate})},
	{"one segment", 24 + 20, []Segment{{Duration: 10 * time.Millisecond, Rate: units.Mbps}}},
	{"one nanosecond", 1, []Segment{{Duration: time.Nanosecond, Rate: 0}}},
}

func repeatSegment(n int, d time.Duration, r units.BitRate) []Segment {
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Duration: d, Rate: r}
	}
	return segs
}

// rebuildTargets returns the traces checkLayout rebuilds from segs with
// Builder.Into, each with room for segs, so the rebuild is in place: one
// with rows of 96 bits, wider than any segs needs, and one with rows of
// zero-rate nanoseconds, narrower than most.
func rebuildTargets(segs []Segment) map[string][]Segment {
	k := max(len(segs), 2)
	return map[string][]Segment{
		"wider":    repeatSegment(k, maxEnd/time.Duration(k), maxRate),
		"narrower": repeatSegment(16*len(segs)+16, time.Nanosecond, 0),
	}
}

// checkLayout compares a trace built from segs against the reference
// layout: construction, Segments, then every query — stateless and through
// one Cursor that mostly moves forward and sometimes jumps back. It does so for the trace New builds and for
// each rebuildTargets trace Builder.Into rewrites in place, which must
// show nothing of what it held before, or, when segs is refused, still
// hold it.
func checkLayout(t *testing.T, segs []Segment, queries []uint16) {
	t.Helper()
	ref, refErr := refNew(segs)
	got, err := New(segs)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("New error %v, reference %v", err, refErr)
	}
	for name, prev := range rebuildTargets(segs) {
		tr := MustNew(prev)
		rows := &tr.rows[0]
		b := Builder{segs: segs}
		if err := b.Into(tr); err != nil {
			if refErr == nil || err.Error() != refErr.Error() {
				t.Fatalf("Into over the %s trace: error %v, reference %v", name, err, refErr)
			}
			if !reflect.DeepEqual(tr.Segments(), prev) {
				t.Fatalf("a refused Into changed the %s trace it was handed", name)
			}
			continue
		}
		if &tr.rows[0] != rows {
			t.Fatalf("Into over the %s trace reallocated its rows", name)
		}
		checkQueries(t, "Into over the "+name+" trace: ", tr, ref, queries)
	}
	if err == nil {
		checkQueries(t, "", got, ref, queries)
	}
}

func checkQueries(t *testing.T, how string, got *Trace, ref *refTrace, queries []uint16) {
	t.Helper()
	if got.Total() != ref.total {
		t.Fatalf("%sTotal %v, reference %v", how, got.Total(), ref.total)
	}
	if !reflect.DeepEqual(got.Segments(), ref.Segments()) {
		t.Fatalf("%sSegments %v, reference %v", how, got.Segments(), ref.Segments())
	}

	cur := got.Cursor()
	span := ref.total + 2*time.Minute
	now := time.Duration(0)
	for q := 0; q+1 < len(queries); q += 2 {
		op, arg := queries[q], time.Duration(queries[q+1])
		if op%5 == 0 { // a jump, usually backwards: ⌊arg·span/65536⌋ without overflow
			now = span/65536*arg + span%65536*arg/65536
		} else {
			now += arg * time.Millisecond
		}
		if op%11 == 0 {
			now = -now
		}
		switch op % 3 {
		case 0:
			want := ref.RateAt(now)
			if r := got.RateAt(now); r != want {
				t.Fatalf("%sRateAt(%v) = %v, reference %v", how, now, r, want)
			}
			if r := cur.RateAt(now); r != want {
				t.Fatalf("%sCursor.RateAt(%v) = %v, reference %v", how, now, r, want)
			}
		case 1:
			to := now + time.Duration(op>>2)*37*time.Millisecond
			want := ref.BytesBetween(now, to)
			if n := got.BytesBetween(now, to); n != want {
				t.Fatalf("%sBytesBetween(%v, %v) = %d, reference %d", how, now, to, n, want)
			}
			if n := cur.BytesBetween(now, to); n != want {
				t.Fatalf("%sCursor.BytesBetween(%v, %v) = %d, reference %d", how, now, to, n, want)
			}
		default:
			n := int64(op>>2) * 997
			wantD, wantOK := ref.DownloadTime(now, n)
			if d, ok := got.DownloadTime(now, n); d != wantD || ok != wantOK {
				t.Fatalf("%sDownloadTime(%v, %d) = (%v, %v), reference (%v, %v)", how, now, n, d, ok, wantD, wantOK)
			}
			if d, ok := cur.DownloadTime(now, n); d != wantD || ok != wantOK {
				t.Fatalf("%sCursor.DownloadTime(%v, %d) = (%v, %v), reference (%v, %v)", how, now, n, d, ok, wantD, wantOK)
			}
			if wantOK {
				now += wantD
			}
		}
	}
}

// edgeQueries walks a trace from before its start to past its end, every
// kind of query at every step, with jumps to each end.
func edgeQueries() []uint16 {
	var q []uint16
	for op := uint16(0); op < 240; op++ {
		q = append(q, op, 1+op*97)
	}
	return q
}

func FuzzTraceLayout(f *testing.F) {
	u16 := func(vs ...uint16) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint16(out, v)
		}
		return out
	}
	f.Add([]byte{})
	// Two segments, the second a dead link: a download that never completes.
	f.Add(u16(1, 500, 3000, 1, 300, 0, 7, 2, 9000, 6, 40, 4, 10))
	// A zero-duration segment: New must refuse.
	f.Add(u16(2, 100, 2000, 1, 0, 1, 800, 1, 200, 700, 1, 3, 300, 5, 60000))
	// A one-nanosecond segment between two long ones, queried across it.
	f.Add(u16(2, 1000, 1500, 1, 0, 0, 900, 1, 1000, 4000, 1, 1, 20, 5, 32000, 6, 400, 7, 9, 9, 100))
	// A segment of ≈ 2^52 ns at the highest rate, 2^40−1 b/s, then one of
	// 3·2^36 ns at 2^39 b/s: jumps into each, downloads across the boundary.
	f.Add(u16(1, 65535, 65535, 65535, 65535, 65535, 65535, 255, 1, 60000, 3, 0, 60000, 32768, 0, 0, 1,
		5, 32000, 4002, 9000, 5, 32767, 4001, 65535, 4000, 5000, 5, 60000, 4003, 100))
	for _, e := range edgeLayouts {
		f.Add(encodeLayout(e.segs, edgeQueries()...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, queries := decodeLayout(data)
		checkLayout(t, segs, queries)
	})
}

// TestTraceLayoutMatchesReference runs the fuzz oracle over the edge
// layouts, over randomized Markov traces, the shape the campaign draws,
// and over the fuzz generator's decoding of random bytes, which reaches
// the widest fields' high bits.
func TestTraceLayoutMatchesReference(t *testing.T) {
	for _, e := range edgeLayouts {
		t.Run(e.name, func(t *testing.T) {
			tr := MustNew(e.segs)
			if w := int(tr.sw + tr.rw); w != e.w {
				t.Fatalf("rows of %d bits, want %d", w, e.w)
			}
			if got, _ := decodeLayout(encodeLayout(e.segs)); !reflect.DeepEqual(got, e.segs) {
				t.Fatalf("the fuzz seed decodes to %v", got)
			}
			checkLayout(t, e.segs, edgeQueries())
		})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queries := make([]uint16, 800)
		for i := range queries {
			queries[i] = uint16(rng.Intn(1 << 16))
		}
		checkLayout(t, randomTrace(rng).Segments(), queries)
		data := make([]byte, 2000)
		rng.Read(data)
		segs, queries := decodeLayout(data)
		checkLayout(t, segs, queries)
	}
}

// TestTraceFootprint pins the layout's size: an n-segment trace costs its
// header and one backing array of n rows as wide as the trace needs —
// bits.Len of its total for the start, of its peak rate for the rate —
// plus 8 bytes of padding. Each case's array is an allocator size class;
// the header is what the allocator charges for one (its 40 bytes take the
// 48-byte class).
func TestTraceFootprint(t *testing.T) {
	const runs = 200
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	for i := 0; i < runs; i++ {
		headerSink = new(Trace)
	}
	runtime.ReadMemStats(&mem)
	header := (mem.TotalAlloc - before) / runs
	for _, c := range []struct {
		n    int
		d    time.Duration // every segment's
		rate units.BitRate
		w    int // bits a row
	}{
		{n: 1, d: time.Second, rate: 10 * units.Gbps, w: 30 + 34},
		{n: 7, d: time.Second, rate: 2 * units.Gbps, w: 33 + 31},
		{n: 8, d: time.Second, rate: 100, w: 33 + 7},
		{n: 8, d: 100 * time.Second, rate: 0, w: 40},
		{n: 63, d: time.Second, rate: 200 * units.Mbps, w: 36 + 28},
	} {
		segs := repeatSegment(c.n, c.d, c.rate)
		if tr := MustNew(segs); int(tr.sw+tr.rw) != c.w {
			t.Fatalf("a %d-segment trace at %v has %d-bit rows, want %d", c.n, c.rate, tr.sw+tr.rw, c.w)
		}
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		for i := 0; i < runs; i++ {
			MustNew(segs)
		}
		runtime.ReadMemStats(&mem)
		if per, budget := (mem.TotalAlloc-before)/runs, header+uint64(c.n*c.w/8+8); per > budget {
			t.Errorf("a %d-segment trace of %d-bit rows allocates %d B, want ≤ %d (the rows, 8 bytes of padding and a %d-byte header)", c.n, c.w, per, budget, header)
		}
	}
}

// headerSink keeps TestTraceFootprint's headers on the heap.
var headerSink *Trace
