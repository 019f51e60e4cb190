package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64())
		if err := w.Add(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.N != 1000 {
		t.Fatalf("N = %d", w.N)
	}
	if m := Mean(xs); math.Abs(w.Mean-m) > 1e-12*math.Abs(m) {
		t.Errorf("Mean = %v, batch %v", w.Mean, m)
	}
	if v := Variance(xs); math.Abs(w.Variance()-v) > 1e-9*v {
		t.Errorf("Variance = %v, batch %v", w.Variance(), v)
	}
	if s := Sum(xs); math.Abs(w.Sum()-s) > 1e-9*math.Abs(s) {
		t.Errorf("Sum = %v, batch %v", w.Sum(), s)
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if w.Min != min || w.Max != max {
		t.Errorf("Min/Max = %v/%v, want %v/%v", w.Min, w.Max, min, max)
	}
}

// Sum is a test helper: the plain sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestWelfordRejectsNonFinite(t *testing.T) {
	var w Welford
	if err := w.Add(1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := w.Add(bad); err != ErrNonFinite {
			t.Errorf("Add(%v) err = %v, want ErrNonFinite", bad, err)
		}
	}
	if w.N != 1 || w.Mean != 1 {
		t.Errorf("rejected samples mutated the accumulator: %+v", w)
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 40
	}
	var whole Welford
	for _, x := range xs {
		whole.Add(x)
	}
	// Split into four shard accumulators and fold left-to-right.
	var folded Welford
	for s := 0; s < 4; s++ {
		var shard Welford
		for _, x := range xs[s*125 : (s+1)*125] {
			shard.Add(x)
		}
		folded.Merge(shard)
	}
	if folded.N != whole.N {
		t.Fatalf("N = %d, want %d", folded.N, whole.N)
	}
	if math.Abs(folded.Mean-whole.Mean) > 1e-12 {
		t.Errorf("merged Mean = %v, sequential %v", folded.Mean, whole.Mean)
	}
	if rel := math.Abs(folded.Variance()-whole.Variance()) / whole.Variance(); rel > 1e-10 {
		t.Errorf("merged Variance = %v, sequential %v", folded.Variance(), whole.Variance())
	}
	if folded.Min != whole.Min || folded.Max != whole.Max {
		t.Errorf("merged extrema %v/%v, want %v/%v", folded.Min, folded.Max, whole.Min, whole.Max)
	}
}

// TestWelfordMergeDeterministicFold pins the determinism contract: the same
// shard accumulators folded in the same order produce bit-identical state,
// regardless of how the shards themselves were computed.
func TestWelfordMergeDeterministicFold(t *testing.T) {
	build := func() Welford {
		rng := rand.New(rand.NewSource(3))
		var folded Welford
		for s := 0; s < 8; s++ {
			var shard Welford
			for i := 0; i < 100; i++ {
				shard.Add(rng.NormFloat64())
			}
			folded.Merge(shard)
		}
		return folded
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("fold not bit-identical: %+v vs %+v", a, b)
	}
}

// TestSketchExactUnderCapacity is the exactness test the issue requires:
// while the sketch has seen no more samples than it retains, every quantile
// matches Percentile on the raw sample bit for bit.
func TestSketchExactUnderCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 17, 64} {
		q := NewQuantileSketch(64)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			if err := q.Add(xs[i], uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if !q.Exact() {
			t.Fatalf("n=%d: sketch not exact under capacity", n)
		}
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 95, 100} {
			want, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d p=%v: sketch %v, Percentile %v", n, p, got, want)
			}
		}
	}
}

// TestSketchMergeAssociative pins the property sharding rests on: merging
// per-shard sketches gives exactly the sketch of the unsharded stream, for
// any shard partitioning.
func TestSketchMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k = 5000, 128
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	whole := NewQuantileSketch(k)
	for i, x := range xs {
		whole.Add(x, uint64(i))
	}
	for _, shards := range []int{2, 4, 7} {
		merged := NewQuantileSketch(k)
		per := (n + shards - 1) / shards
		for s := 0; s < shards; s++ {
			shard := NewQuantileSketch(k)
			for i := s * per; i < min((s+1)*per, n); i++ {
				shard.Add(xs[i], uint64(i))
			}
			if err := merged.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Seen != whole.Seen || len(merged.Entries) != len(whole.Entries) {
			t.Fatalf("shards=%d: seen/len mismatch", shards)
		}
		for i := range merged.Entries {
			if merged.Entries[i] != whole.Entries[i] {
				t.Fatalf("shards=%d: entry %d differs: %+v vs %+v",
					shards, i, merged.Entries[i], whole.Entries[i])
			}
		}
	}
}

func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, k = 200000, 512
	q := NewQuantileSketch(k)
	for i := 0; i < n; i++ {
		q.Add(rng.Float64(), uint64(i))
	}
	if q.Exact() {
		t.Fatal("sketch claims exactness over capacity")
	}
	if len(q.Entries) != k {
		t.Fatalf("retained %d, want %d", len(q.Entries), k)
	}
	for _, p := range []float64{25, 50, 75, 95} {
		got, err := q.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Uniform[0,1): the true quantile is p/100; bottom-k of 512 gives
		// standard error ≈ 0.5/√512 ≈ 0.022.
		if math.Abs(got-p/100) > 0.08 {
			t.Errorf("p%v = %v, want ≈%v", p, got, p/100)
		}
	}
}

func TestSketchRejectsNonFiniteAndDuplicates(t *testing.T) {
	q := NewQuantileSketch(8)
	if err := q.Add(math.NaN(), 1); err != ErrNonFinite {
		t.Errorf("NaN err = %v", err)
	}
	if err := q.Add(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(2, 7); err == nil {
		t.Error("duplicate key accepted")
	}
	if q.Seen != 1 {
		t.Errorf("Seen = %d, want 1", q.Seen)
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	q := NewQuantileSketch(16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		q.Add(rng.NormFloat64(), uint64(i))
	}
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.K != q.K || back.Seen != q.Seen || len(back.Entries) != len(q.Entries) {
		t.Fatal("round trip lost state")
	}
	for i := range q.Entries {
		if back.Entries[i] != q.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, back.Entries[i], q.Entries[i])
		}
	}
}

func TestDistFiltersNonFinite(t *testing.T) {
	d := NewDist(8)
	if err := d.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(math.Inf(1), 1); err != ErrNonFinite {
		t.Errorf("Inf err = %v", err)
	}
	if err := d.Add(2, 2); err != nil {
		t.Fatal(err)
	}
	if d.NonFinite != 1 {
		t.Errorf("NonFinite = %d, want 1", d.NonFinite)
	}
	if d.Moments.N != 2 {
		t.Errorf("N = %d, want 2", d.Moments.N)
	}
	var o Dist
	o = NewDist(8)
	o.Add(math.NaN(), 10)
	o.Add(3, 11)
	if err := d.Merge(o); err != nil {
		t.Fatal(err)
	}
	if d.NonFinite != 2 || d.Moments.N != 3 {
		t.Errorf("merged NonFinite/N = %d/%d, want 2/3", d.NonFinite, d.Moments.N)
	}
}

// TestIgnoreNonFinite pins the fold tolerance campaign and arena share: the
// filtered-sample report is dropped whether bare or wrapped (the arena's
// copy compared by identity and aborted on a wrapped one), every other
// error passes through.
func TestIgnoreNonFinite(t *testing.T) {
	d := NewDist(8)
	if err := IgnoreNonFinite(d.Add(math.NaN(), 1)); err != nil {
		t.Errorf("bare non-finite report not tolerated: %v", err)
	}
	if err := IgnoreNonFinite(fmt.Errorf("group x: %w", ErrNonFinite)); err != nil {
		t.Errorf("wrapped non-finite report not tolerated: %v", err)
	}
	if err := IgnoreNonFinite(d.Add(1, 7)); err != nil {
		t.Fatal(err)
	}
	if err := IgnoreNonFinite(d.Add(2, 7)); err == nil {
		t.Error("duplicate-key error swallowed")
	}
	if d.NonFinite != 1 {
		t.Errorf("NonFinite = %d, want the one filtered sample counted", d.NonFinite)
	}
}

// TestMixPinned pins Mix's outputs: campaign session and fault seeds and
// every fault decision derive from it, so a changed value would redraw the
// population and the fault weather.
func TestMixPinned(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		coords []uint64
		want   uint64
	}{
		{0x0, nil, 0x0},
		{0x0, []uint64{0x0}, 0xe220a8397b1dcdaf},
		{0x1, []uint64{0x2, 0x3}, 0xee3bb459e9e297b},
		{0x29, []uint64{0x5, 0x11, 0xca3a16}, 0x7882144284cccff6},
		{0x7, []uint64{0x3, 0xc8, 0xca3a16fa5e1}, 0x3d7a7a748314031e},
		{0xffffffffffffffff, []uint64{0xffffffffffffffff}, 0xb4d055fcf2cbbd7b},
		{0x9e3779b97f4a7c15, []uint64{0x1, 0x2, 0x3, 0x4}, 0x75db5d54b9b6cab1},
	} {
		if got := Mix(c.seed, c.coords...); got != c.want {
			t.Errorf("Mix(%#x, %#x) = %#x, want %#x", c.seed, c.coords, got, c.want)
		}
	}
}
