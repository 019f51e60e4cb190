package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"bba/internal/units"
)

// The reference layout: the 40-byte segment — start, end and the float
// rate stored beside each (duration, rate) — with New, the two
// integration cores, Slice and WriteCSV as they were written against it,
// kept verbatim as the oracle the 16-byte {start, rate} layout is held to,
// bit for bit.

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

func (t *refTrace) Slice(from, to time.Duration) (*refTrace, error) {
	if from < 0 || from >= to || from >= t.total {
		return nil, fmt.Errorf("trace: bad slice [%v, %v) of a %v trace", from, to, t.total)
	}
	var segs []Segment
	cursor := from
	for cursor < to {
		i := t.index(cursor)
		segEnd := t.segs[i].end
		if i == len(t.segs)-1 && segEnd < to {
			segEnd = to
		}
		end := segEnd
		if end > to {
			end = to
		}
		segs = append(segs, Segment{Duration: end - cursor, Rate: t.segs[i].Rate})
		cursor = end
	}
	return refNew(segs)
}

func (t *refTrace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.segs {
		if _, err := fmt.Fprintf(bw, "%.6f,%d\n", s.Duration.Seconds(), int64(s.Rate)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeLayout turns fuzz bytes into a segment list and a query stream:
// 16-bit fields, durations in 10 ms ticks (some a single nanosecond, so
// boundaries land between ticks), rates including zero. Segments may be
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
	for n := next()%16 + 1; n > 0; n-- {
		d := time.Duration(next()%3000) * 10 * time.Millisecond
		if d == 0 && next()%2 == 0 {
			d = time.Nanosecond
		}
		rate := units.BitRate(next()%5000) * units.Kbps
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

// checkLayout compares a trace built from segs against the reference
// layout: construction, Segments, WriteCSV, then every query — stateless
// and through one Cursor that mostly moves forward and sometimes jumps
// back — and Slice on the same windows.
func checkLayout(t *testing.T, segs []Segment, queries []uint16) {
	t.Helper()
	ref, refErr := refNew(segs)
	got, err := New(segs)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("New error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	if got.Total() != ref.total {
		t.Fatalf("Total %v, reference %v", got.Total(), ref.total)
	}
	if !reflect.DeepEqual(got.Segments(), ref.Segments()) {
		t.Fatalf("Segments %v, reference %v", got.Segments(), ref.Segments())
	}
	var gotCSV, refCSV bytes.Buffer
	if err := got.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Fatalf("WriteCSV\n%s\nreference\n%s", gotCSV.Bytes(), refCSV.Bytes())
	}

	cur := got.Cursor()
	span := ref.total + 2*time.Minute
	now := time.Duration(0)
	for q := 0; q+1 < len(queries); q += 2 {
		op, arg := queries[q], time.Duration(queries[q+1])
		if op%5 == 0 { // a jump, usually backwards
			now = time.Duration(int64(arg) * int64(span) / 65536)
		} else {
			now += arg * time.Millisecond
		}
		if op%11 == 0 {
			now = -now
		}
		switch op % 4 {
		case 0:
			want := ref.RateAt(now)
			if r := got.RateAt(now); r != want {
				t.Fatalf("RateAt(%v) = %v, reference %v", now, r, want)
			}
			if r := cur.RateAt(now); r != want {
				t.Fatalf("Cursor.RateAt(%v) = %v, reference %v", now, r, want)
			}
		case 1:
			to := now + time.Duration(op>>2)*37*time.Millisecond
			want := ref.BytesBetween(now, to)
			if n := got.BytesBetween(now, to); n != want {
				t.Fatalf("BytesBetween(%v, %v) = %d, reference %d", now, to, n, want)
			}
			if n := cur.BytesBetween(now, to); n != want {
				t.Fatalf("Cursor.BytesBetween(%v, %v) = %d, reference %d", now, to, n, want)
			}
		case 2:
			n := int64(op>>2) * 997
			wantD, wantOK := ref.DownloadTime(now, n)
			if d, ok := got.DownloadTime(now, n); d != wantD || ok != wantOK {
				t.Fatalf("DownloadTime(%v, %d) = (%v, %v), reference (%v, %v)", now, n, d, ok, wantD, wantOK)
			}
			if d, ok := cur.DownloadTime(now, n); d != wantD || ok != wantOK {
				t.Fatalf("Cursor.DownloadTime(%v, %d) = (%v, %v), reference (%v, %v)", now, n, d, ok, wantD, wantOK)
			}
			if wantOK {
				now += wantD
			}
		default:
			to := now + time.Duration(op>>2)*53*time.Millisecond
			want, wantErr := ref.Slice(now, to)
			s, err := got.Slice(now, to)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Slice(%v, %v) error %v, reference %v", now, to, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(s.Segments(), want.Segments()) {
				t.Fatalf("Slice(%v, %v) = %v, reference %v", now, to, s.Segments(), want.Segments())
			}
		}
	}
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
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, queries := decodeLayout(data)
		checkLayout(t, segs, queries)
	})
}

// TestTraceLayoutMatchesReference runs the fuzz oracle over randomized
// Markov traces, the shape the campaign draws.
func TestTraceLayoutMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queries := make([]uint16, 800)
		for i := range queries {
			queries[i] = uint16(rng.Intn(1 << 16))
		}
		checkLayout(t, randomTrace(rng).Segments(), queries)
	}
}

// TestTraceFootprint pins the layout's size: an n-segment trace costs its
// header and one backing array of 16 bytes a segment (was 40). The sizes
// are chosen so 16·n is an allocator size class.
func TestTraceFootprint(t *testing.T) {
	if s := unsafe.Sizeof(seg{}); s != 16 {
		t.Fatalf("a segment is %d bytes, want 16", s)
	}
	header := uint64(unsafe.Sizeof(Trace{}))
	for _, n := range []int{1, 8, 64, 512} {
		segs := make([]Segment, n)
		for i := range segs {
			segs[i] = Segment{Duration: time.Second, Rate: units.BitRate(i) * units.Kbps}
		}
		const runs = 200
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		for i := 0; i < runs; i++ {
			MustNew(segs)
		}
		runtime.ReadMemStats(&mem)
		if per, budget := (mem.TotalAlloc-before)/runs, 16*uint64(n)+header; per > budget {
			t.Errorf("a %d-segment trace allocates %d B, want ≤ %d (16 B a segment plus a %d-byte header)", n, per, budget, header)
		}
	}
}
