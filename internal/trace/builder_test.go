package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"bba/internal/units"
)

// The reference chain: the trace composition as it was before the Builder
// — Markov → MustNew, WithOverrides with a binary search per span, and the
// fault layer's extend-then-expand-collapses ApplyToTrace — kept here on
// plain segment slices as the oracle the Builder is compared against,
// segment for segment.

func refStarts(segs []Segment) (starts []time.Duration, total time.Duration) {
	for _, s := range segs {
		starts = append(starts, total)
		total += s.Duration
	}
	return starts, total
}

func refValidate(segs []Segment) error {
	if len(segs) == 0 {
		return ErrEmpty
	}
	for _, s := range segs {
		if s.Duration <= 0 || s.Rate < 0 {
			return fmt.Errorf("bad segment %+v", s)
		}
	}
	return nil
}

func refMarkov(cfg MarkovConfig, rng *rand.Rand) []Segment {
	var segs []Segment
	var elapsed time.Duration
	for elapsed < cfg.Duration {
		factor := math.Exp(cfg.Sigma * rng.NormFloat64())
		rate := cfg.Base.Scale(factor).Clamp(cfg.Floor, cfg.Ceiling)
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
	return segs
}

func refWithOverrides(base []Segment, sorted []Override) ([]Segment, error) {
	starts, total := refStarts(base)
	index := func(at time.Duration) int {
		i := sort.Search(len(starts), func(i int) bool { return starts[i] > at })
		if i == 0 {
			return 0
		}
		return i - 1
	}
	var segs []Segment
	cursor := time.Duration(0)
	appendSpan := func(from, to time.Duration) {
		for from < to {
			i := index(from)
			segEnd := starts[i] + base[i].Duration
			if i == len(base)-1 && segEnd < to {
				segEnd = to
			}
			end := min(segEnd, to)
			if end > from {
				segs = append(segs, Segment{Duration: end - from, Rate: base[i].Rate})
			}
			from = end
		}
	}
	for i, o := range sorted {
		if o.Duration <= 0 || o.Rate < 0 || o.Start < cursor || o.Start > total {
			return nil, fmt.Errorf("bad override %d", i)
		}
		appendSpan(cursor, o.Start)
		segs = append(segs, Segment{Duration: o.Duration, Rate: o.Rate})
		cursor = o.Start + o.Duration
	}
	if cursor < total {
		appendSpan(cursor, total)
	}
	return segs, refValidate(segs)
}

// refApplySpans is the old Schedule.ApplyToTrace given the schedule's
// disjoint capacity spans (Factor 0 = blackout).
func refApplySpans(base []Segment, spans []Override) ([]Segment, error) {
	if len(spans) == 0 {
		return base, nil
	}
	segs := append([]Segment(nil), base...)
	_, total := refStarts(segs)
	last := spans[len(spans)-1]
	if end := last.Start + last.Duration; end >= total {
		segs[len(segs)-1].Duration += end - total + time.Second
	}
	bounds, _ := refStarts(segs)
	rateAt := func(at time.Duration) units.BitRate {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > at })
		return segs[max(i-1, 0)].Rate
	}
	var ovs []Override
	for _, sp := range spans {
		start, end := sp.Start, sp.Start+sp.Duration
		if sp.Factor == 0 {
			ovs = append(ovs, Override{Start: start, Duration: end - start})
			continue
		}
		for cursor := start; cursor < end; {
			i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > cursor })
			segEnd := end
			if i < len(bounds) && bounds[i] < segEnd {
				segEnd = bounds[i]
			}
			ovs = append(ovs, Override{Start: cursor, Duration: segEnd - cursor, Rate: rateAt(cursor).Scale(sp.Factor)})
			cursor = segEnd
		}
	}
	return refWithOverrides(segs, ovs)
}

// refChain composes base → population overrides → fault spans the old way.
func refChain(base []Segment, overrides, spans []Override) ([]Segment, error) {
	if err := refValidate(base); err != nil {
		return nil, err
	}
	segs, err := refWithOverrides(base, overrides)
	if err != nil {
		return nil, err
	}
	return refApplySpans(segs, spans)
}

// buildChain composes the same thing through b, exactly as abtest and
// faults drive it.
func buildChain(b *Builder, overrides, spans []Override) (*Trace, error) {
	if err := composeChain(b, overrides, spans); err != nil {
		return nil, err
	}
	return b.Trace()
}

// composeChain is buildChain short of materialising the trace.
func composeChain(b *Builder, overrides, spans []Override) error {
	if err := b.Override(overrides); err != nil {
		return err
	}
	if len(spans) > 0 {
		last := spans[len(spans)-1]
		if end := last.Start + last.Duration; end >= b.Total() {
			b.Extend(end - b.Total() + time.Second)
		}
		if err := b.Override(spans); err != nil {
			return err
		}
	}
	return nil
}

func checkChain(t *testing.T, b *Builder, base []Segment, overrides, spans []Override) {
	t.Helper()
	want, wantErr := refChain(base, overrides, spans)
	var got *Trace
	gotErr := refValidate(base)
	if gotErr == nil {
		b.Load(MustNew(base))
		got, gotErr = buildChain(b, overrides, spans)
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("builder error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got.Segments(), want) {
		t.Fatalf("builder and reference chain differ\n base      %v\n overrides %+v\n spans     %+v\n builder   %v\n reference %v",
			base, overrides, spans, got.Segments(), want)
	}
}

// randomSpans draws n start-ordered disjoint spans (touching allowed) over
// roughly [0, horizon): fixed-rate overrides, or — with factors — fault
// spans alternating blackouts and collapses.
func randomSpans(rng *rand.Rand, n int, horizon time.Duration, factors bool) []Override {
	var out []Override
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 { // one in four touches its predecessor
			at += time.Duration(rng.Int63n(int64(horizon)/int64(n) + 1))
		}
		o := Override{Start: at, Duration: time.Duration(1 + rng.Int63n(int64(40*time.Second)))}
		switch {
		case !factors:
			o.Rate = units.BitRate(rng.Intn(3)) * 150 * units.Kbps
		case rng.Intn(2) == 0:
			o.Factor = 0.05 + 0.9*rng.Float64()
		}
		out = append(out, o)
		at += o.Duration
	}
	return out
}

// TestBuilderMatchesReferenceChain composes randomized draws — Markov base,
// population overrides, fault spans reaching past the end (the
// extend-by-one-second rule) and touching each other — through one reused
// Builder and through the pre-Builder chain, and requires equal segments.
func TestBuilderMatchesReferenceChain(t *testing.T) {
	var b Builder
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := MarkovConfig{
			Base:      units.BitRate(500+rng.Intn(8000)) * units.Kbps,
			Sigma:     rng.Float64() * 1.3,
			MeanDwell: time.Duration(1+rng.Intn(10)) * time.Second,
			Duration:  time.Duration(1+rng.Intn(1200)) * time.Second,
			Floor:     64 * units.Kbps,
			Ceiling:   100 * units.Mbps,
		}
		base := refMarkov(cfg, rand.New(rand.NewSource(seed)))
		if got := Markov(cfg, rand.New(rand.NewSource(seed))).Segments(); !reflect.DeepEqual(got, base) {
			t.Fatalf("seed %d: Markov differs from the reference generator", seed)
		}
		overrides := randomSpans(rng, rng.Intn(5), cfg.Duration, false)
		// The fault horizon is independent of the trace length, so spans
		// land inside, across and beyond the end.
		spans := randomSpans(rng, rng.Intn(6), 900*time.Second, true)
		checkChain(t, &b, base, overrides, spans)
	}
}

// decodeChain turns fuzz bytes into a base and the two override lists:
// 16-bit fields, durations in 10 ms ticks. Population overrides are taken
// as they come (so they may be unsorted, overlapping or out of range — the
// error paths); fault spans are disjoint by construction, as
// Schedule.capacitySpans guarantees.
func decodeChain(data []byte) (base []Segment, overrides, spans []Override) {
	next := func() int {
		if len(data) < 2 {
			return 0
		}
		v := binary.LittleEndian.Uint16(data)
		data = data[2:]
		return int(v)
	}
	tick := 10 * time.Millisecond
	for n := next()%12 + 1; n > 0; n-- {
		base = append(base, Segment{Duration: time.Duration(next()%3000+1) * tick, Rate: units.BitRate(next()) * units.Kbps})
	}
	for n := next() % 5; n > 0; n-- {
		overrides = append(overrides, Override{
			Start:    time.Duration(next()) * tick,
			Duration: time.Duration(next()%2000) * tick,
			Rate:     units.BitRate(next()%4000) * units.Kbps,
		})
	}
	at := time.Duration(0)
	for n := next() % 5; n > 0; n-- {
		at += time.Duration(next()%4000) * tick
		o := Override{Start: at, Duration: time.Duration(next()%2000+1) * tick}
		if f := next() % 100; f > 0 {
			o.Factor = float64(f) / 100
		}
		spans = append(spans, o)
		at += o.Duration
	}
	return base, overrides, spans
}

func FuzzTraceBuilder(f *testing.F) {
	u16 := func(vs ...uint16) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint16(out, v)
		}
		return out
	}
	f.Add([]byte{})
	// One segment, a blackout reaching past its end: the extension rule.
	f.Add(u16(0, 1000, 3000, 0, 1, 900, 500, 0))
	// Three segments, one fade, then a collapse across two boundaries
	// touching a blackout.
	f.Add(u16(2, 500, 4000, 500, 2000, 500, 800, 1, 100, 50, 300, 2, 300, 900, 50, 0, 200, 0))
	// Overlapping population overrides: both sides must refuse.
	f.Add(u16(0, 2000, 1000, 2, 100, 500, 200, 300, 500, 200, 0))
	// A 1001-tick base and an outage starting just inside its end, exactly
	// at it, and beyond it; and a zero-duration outage. Both sides refuse
	// the last two.
	f.Add(u16(0, 1000, 1000, 1, 1000, 100, 0, 0))
	f.Add(u16(0, 1000, 1000, 1, 1001, 100, 0, 0))
	f.Add(u16(0, 1000, 1000, 1, 1002, 100, 0, 0))
	f.Add(u16(0, 1000, 1000, 1, 100, 0, 0, 0))
	var b Builder
	f.Fuzz(func(t *testing.T, data []byte) {
		base, overrides, spans := decodeChain(data)
		checkChain(t, &b, base, overrides, spans)
	})
}

// TestBuilderAllocatesOncePerTrace pins the materialisation cost: each
// Trace a warmed Builder hands out costs what New's trace of the same
// segments does — its header and its rows, exactly sized, and nothing of
// the Builder's buffers. Rows sized for more than their trace, or any part
// of a composition buffer handed out with them, break it.
func TestBuilderAllocatesOncePerTrace(t *testing.T) {
	cfg := MarkovConfig{Base: 3 * units.Mbps, Sigma: 0.6, MeanDwell: 8 * time.Second, Duration: 30 * time.Minute}
	overrides := []Override{{Start: 5 * time.Minute, Duration: time.Minute, Rate: 200 * units.Kbps}}
	spans := []Override{{Start: 10 * time.Minute, Duration: 5 * time.Minute, Factor: 0.2}, {Start: 29 * time.Minute, Duration: 2 * time.Minute}}
	var b Builder
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		b.Markov(cfg, rng)
		if err := composeChain(&b, overrides, spans); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 1000
	kept := make([]*Trace, runs) // kept, so the count sees every one
	cost := func(materialise func() (*Trace, error)) (mallocs, bytes uint64) {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		mallocs, bytes = mem.Mallocs, mem.TotalAlloc
		for i := range kept {
			tr, err := materialise()
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = tr
		}
		runtime.ReadMemStats(&mem)
		return (mem.Mallocs - mallocs) / runs, (mem.TotalAlloc - bytes) / runs
	}
	mallocs, bytes := cost(b.Trace)
	newMallocs, newBytes := cost(func() (*Trace, error) { return New(b.segs) })
	t.Logf("a %d-segment trace: Builder %d allocations, %d B; New %d, %d B", len(b.segs), mallocs, bytes, newMallocs, newBytes)
	if mallocs > newMallocs || bytes > newBytes {
		t.Errorf("a warmed Builder's trace makes %d allocations of %d B; New makes %d of %d B for the same segments", mallocs, bytes, newMallocs, newBytes)
	}
}

// TestBuilderFirstTraceCostsWhatNewDoes: a Builder that materialises one
// trace — abtest.DrawUser's, faults.Apply's — allocates no more, in count
// or bytes, than New does for the same segments. Rows sized for more
// than their one trace fail.
func TestBuilderFirstTraceCostsWhatNewDoes(t *testing.T) {
	cfg := MarkovConfig{Base: 3 * units.Mbps, Sigma: 0.6, MeanDwell: 8 * time.Second, Duration: 30 * time.Minute}
	const runs = 64
	builders := make([]Builder, runs)
	for i := range builders {
		builders[i].Markov(cfg, rand.New(rand.NewSource(int64(i))))
	}
	cost := func(materialise func(b *Builder) (*Trace, error)) (mallocs, bytes uint64) {
		kept := make([]*Trace, runs)
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		mallocs, bytes = mem.Mallocs, mem.TotalAlloc
		for i := range builders {
			tr, err := materialise(&builders[i])
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = tr
		}
		runtime.ReadMemStats(&mem)
		return mem.Mallocs - mallocs, mem.TotalAlloc - bytes
	}
	newMallocs, newBytes := cost(func(b *Builder) (*Trace, error) { return New(b.segs) })
	mallocs, bytes := cost((*Builder).Trace)
	t.Logf("%d first traces: Builder %d allocations, %d B; New %d, %d B", runs, mallocs, bytes, newMallocs, newBytes)
	if mallocs > newMallocs || bytes > newBytes {
		t.Errorf("%d fresh Builders' first traces made %d allocations of %d B; New made %d of %d B", runs, mallocs, bytes, newMallocs, newBytes)
	}
}

// TestBuilderTracesAreIndependent is the retention contract at its source:
// a trace handed out earlier is untouched by everything the Builder
// composes afterwards, and by Into rebuilding another of its traces in
// place — narrower, which reuses that trace's rows, and wider, which must
// move it to rows of its own.
func TestBuilderTracesAreIndependent(t *testing.T) {
	var b Builder
	cfg := MarkovConfig{Base: 3 * units.Mbps, Sigma: 0.8, MeanDwell: 4 * time.Second, Duration: 10 * time.Minute}
	b.Markov(cfg, rand.New(rand.NewSource(5)))
	first, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	want := first.Segments()
	for seed := int64(6); seed < 10; seed++ {
		b.Markov(cfg, rand.New(rand.NewSource(seed)))
		if _, err := buildChain(&b, []Override{{Start: time.Minute, Duration: time.Minute}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first.Segments(), want) {
		t.Error("a materialised trace changed when its Builder was reused")
	}

	b.Markov(cfg, rand.New(rand.NewSource(20)))
	second, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	region := unsafe.Pointer(&second.rows[0])
	for _, c := range []struct {
		name     string
		duration time.Duration
		inPlace  bool
	}{{"narrower", time.Minute, true}, {"wider", time.Hour, false}} {
		b.Markov(MarkovConfig{Base: cfg.Base, Sigma: cfg.Sigma, MeanDwell: cfg.MeanDwell, Duration: c.duration}, rand.New(rand.NewSource(30)))
		wantSecond := append([]Segment(nil), b.segs...)
		if err := b.Into(second); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Segments(), want) {
			t.Errorf("%s: rebuilding another trace in place changed the first", c.name)
		}
		if !reflect.DeepEqual(second.Segments(), wantSecond) {
			t.Errorf("%s: the rebuilt trace does not hold its composition", c.name)
		}
		if inPlace := unsafe.Pointer(&second.rows[0]) == region; inPlace != c.inPlace {
			t.Errorf("%s: rebuilt in its own rows %v, want %v", c.name, inPlace, c.inPlace)
		}
	}
}
