// Streaming, mergeable, constant-memory accumulators — the aggregation
// layer behind population-scale campaigns. The paper's A/B evidence covers
// millions of sessions; retaining raw per-session samples is O(sessions),
// so the campaign runner folds every session into a Welford moment
// accumulator plus a fixed-size mergeable quantile sketch instead.
//
// Determinism contract: merged results are defined as a left-to-right fold
// over fixed shard accumulators in shard-index order. Welford merging is
// deterministic but not exactly associative in floating point, so the fold
// order — never the worker count — defines the result. The quantile sketch
// IS exactly associative (bottom-k by hashed key is a set operation), so it
// is additionally invariant to merge grouping.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNonFinite is returned when a sample contains NaN or ±Inf. sort.Float64s
// silently misorders NaN, which would corrupt every sort-based quantile, so
// non-finite inputs are rejected before any ordering happens.
var ErrNonFinite = errors.New("stats: non-finite sample")

// Welford is a constant-memory accumulator for count, mean and variance
// using Welford's online update, with min/max tracked alongside. Two
// accumulators merge with the Chan et al. parallel formula; merging shard
// accumulators in a fixed order reproduces a deterministic result at any
// worker count.
type Welford struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	// M2 is the sum of squared deviations from the running mean.
	M2  float64 `json:"m2"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Add folds one sample in. Non-finite samples are rejected with
// ErrNonFinite and leave the accumulator unchanged.
func (w *Welford) Add(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return ErrNonFinite
	}
	w.N++
	if w.N == 1 {
		w.Mean, w.Min, w.Max = x, x, x
		return nil
	}
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
	if x < w.Min {
		w.Min = x
	}
	if x > w.Max {
		w.Max = x
	}
	return nil
}

// Merge folds another accumulator into w (Chan et al.). Merging in a fixed
// order is deterministic; merging in a different order may differ in the
// last bits, so campaign folds always run in shard-index order.
func (w *Welford) Merge(o Welford) {
	if o.N == 0 {
		return
	}
	if w.N == 0 {
		*w = o
		return
	}
	n := w.N + o.N
	d := o.Mean - w.Mean
	w.M2 += o.M2 + d*d*float64(w.N)*float64(o.N)/float64(n)
	w.Mean += d * float64(o.N) / float64(n)
	w.N = n
	if o.Min < w.Min {
		w.Min = o.Min
	}
	if o.Max > w.Max {
		w.Max = o.Max
	}
}

// Sum returns N·mean, the accumulated total.
func (w Welford) Sum() float64 { return w.Mean * float64(w.N) }

// Variance returns the unbiased (n−1) sample variance, 0 below two samples.
func (w Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N-1)
}

// StdDev returns the sample standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// MeanCI95 returns the normal-approximation 95% confidence interval for the
// mean (mean ± 1.96·s/√n). Below two samples the interval collapses to the
// mean. For the session counts campaigns aggregate (thousands per arm) the
// normal approximation is the appropriate tool.
func (w Welford) MeanCI95() (lo, hi float64) {
	if w.N < 2 {
		return w.Mean, w.Mean
	}
	half := 1.96 * w.StdDev() / math.Sqrt(float64(w.N))
	return w.Mean - half, w.Mean + half
}

// RatioPair is a constant-memory accumulator for comparing two arms'
// pooled rates, Σcount/Σexposure (rebuffers per play hour), over paired
// draws. Per draw it takes each arm's count and exposure and keeps the draw
// count, the four means and their co-moments. Two accumulators merge with
// the Chan et al. update as Welfords do, so merging shards in a fixed order
// gives one result at any worker count.
type RatioPair struct {
	N int64
	// Mean holds the per-draw means: count A, exposure A, count B, exposure B.
	Mean [4]float64
	// C holds the co-moments Σ (x_i − mean_i)(x_j − mean_j), symmetric.
	C [4][4]float64
}

// ErrUndecided is returned by RatioPair.Test when its draws cannot decide a
// ratio: fewer than two of them, or a pooled count or exposure of zero.
var ErrUndecided = errors.New("stats: ratio undecided")

// Add folds one draw in. A draw with a non-finite value is rejected with
// ErrNonFinite and leaves the accumulator unchanged.
func (r *RatioPair) Add(countA, expA, countB, expB float64) error {
	x := [4]float64{countA, expA, countB, expB}
	if err := CheckFinite(x[:]); err != nil {
		return err
	}
	r.N++
	var d [4]float64
	for i := range x {
		d[i] = x[i] - r.Mean[i]
		r.Mean[i] += d[i] / float64(r.N)
	}
	f := float64(r.N-1) / float64(r.N)
	for i := range d {
		for j := range d {
			r.C[i][j] += d[i] * d[j] * f
		}
	}
	return nil
}

// Merge folds another accumulator into r (Chan et al.); like Welford.Merge,
// a fixed merge order is deterministic.
func (r *RatioPair) Merge(o RatioPair) {
	if o.N == 0 {
		return
	}
	if r.N == 0 {
		*r = o
		return
	}
	n := r.N + o.N
	f := float64(r.N) * float64(o.N) / float64(n)
	var d [4]float64
	for i := range d {
		d[i] = o.Mean[i] - r.Mean[i]
		r.Mean[i] += d[i] * float64(o.N) / float64(n)
	}
	for i := range d {
		for j := range d {
			r.C[i][j] += o.C[i][j] + d[i]*d[j]*f
		}
	}
	r.N = n
}

// Swapped is the same draws with the arms trading places.
func (r RatioPair) Swapped() RatioPair {
	perm := [4]int{2, 3, 0, 1}
	s := RatioPair{N: r.N}
	for i, pi := range perm {
		s.Mean[i] = r.Mean[pi]
		for j, pj := range perm {
			s.C[i][j] = r.C[pi][pj]
		}
	}
	return s
}

// RatioTest is the paired test of two arms' pooled rates over N draws: the
// ratio R = (Σcount_A/Σexp_A)/(Σcount_B/Σexp_B), its confidence interval
// [Lo, Hi] and the two-sided p-value of R = 1.
type RatioTest struct {
	N                int64
	Ratio, Lo, Hi, P float64
}

// Test is the delta-method test on log R at confidence level conf. log R is
// a smooth function of the four means; with its gradient
// g = (1/c̄_A, −1/ē_A, −1/c̄_B, 1/ē_B) and Σ the draws' sample covariance,
// se² = gᵀΣg/n, the interval is exp(log R ± z·se), z the two-sided normal
// quantile of conf, and p = erfc(|log R|/(se·√2)). Identical arms give
// R = 1 exactly, and p = 1. With fewer than two draws or a zero pooled
// count or exposure Test returns ErrUndecided (and N); with co-moments past
// the float range, ErrNonFinite.
func (r RatioPair) Test(conf float64) (RatioTest, error) {
	t := RatioTest{N: r.N}
	m := r.Mean
	if r.N < 2 || m[0] <= 0 || m[1] <= 0 || m[2] <= 0 || m[3] <= 0 {
		return t, ErrUndecided
	}
	// gᵀCg by blocks: A's, B's, twice the cross term. For identical arms B's
	// gradient is the negation of A's and all four blocks are equal, so the
	// three terms cancel exactly and se = 0.
	a, b := [2]float64{1 / m[0], -1 / m[1]}, [2]float64{-1 / m[2], 1 / m[3]}
	form := func(x, y [2]float64, i, j int) float64 {
		return x[0]*y[0]*r.C[i][j] + x[0]*y[1]*r.C[i][j+1] + x[1]*y[0]*r.C[i+1][j] + x[1]*y[1]*r.C[i+1][j+1]
	}
	q := form(a, a, 0, 0) + form(b, b, 2, 2) + 2*form(a, b, 0, 2)
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return t, ErrNonFinite
	}
	se := math.Sqrt(max(q, 0) / (float64(r.N-1) * float64(r.N)))
	t.Ratio = (m[0] / m[1]) / (m[2] / m[3])
	lr := math.Log(t.Ratio)
	half := math.Sqrt2 * math.Erfinv(conf) * se
	t.Lo, t.Hi = math.Exp(lr-half), math.Exp(lr+half)
	t.P = 1
	if lr != 0 {
		t.P = math.Erfc(math.Abs(lr) / se / math.Sqrt2)
	}
	return t, nil
}

// SketchEntry is one retained sample of a QuantileSketch: the sample value
// and the hash of its identity key, which decides retention.
type SketchEntry struct {
	Hash  uint64  `json:"h"`
	Value float64 `json:"v"`
}

// QuantileSketch is a fixed-size mergeable quantile estimator: it retains
// the K samples whose hashed identity keys are smallest (a bottom-k /
// KMV-style sketch). Because retention is a pure function of the key set,
// merging is exactly associative and commutative — the sketch of a sharded
// population is bit-identical to the sketch of the unsharded one — and the
// retained set is a uniform sample of the population, so quantiles estimate
// the true ones with error O(1/√K). While the sketch has seen at most K
// distinct keys it retains everything and its quantiles are exact (the
// property TestSketchExactUnderCapacity pins against Percentile).
//
// Keys must be unique per sample (the campaign uses the global session
// index); the hash is a bijective mix, so distinct keys never collide.
type QuantileSketch struct {
	K int `json:"k"`
	// Entries is canonical: sorted ascending by Hash.
	Entries []SketchEntry `json:"entries"`
	// Seen counts every accepted sample, retained or not.
	Seen int64 `json:"seen"`
}

// NewQuantileSketch returns a sketch retaining k samples (k ≥ 1).
func NewQuantileSketch(k int) QuantileSketch {
	if k < 1 {
		k = 1
	}
	return QuantileSketch{K: k}
}

// SplitMix64 is the SplitMix64 finalizer, the one mixer behind every derived
// seed and hash in the repo (session and shard seeds, fault decisions, soak
// cycles, sketch keys). Each caller folds its coordinates into z its own
// way before calling it. It is bijective, so distinct inputs map to
// distinct outputs.
func SplitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix folds coordinates into seed, one SplitMix64 round per coordinate, so
// a value derived from (seed, coords) is a pure function of them: campaign
// session and fault seeds, fault decisions and retry jitter.
func Mix(seed uint64, coords ...uint64) uint64 {
	x := seed
	for _, v := range coords {
		x += (v + 1) * 0x9E3779B97F4A7C15
		x = SplitMix64(x)
	}
	return x
}

// sketchMix hashes a sample key: distinct keys keep distinct hashes, and
// they are scrambled enough that bottom-k retention is an unbiased uniform
// sample even over sequential keys.
func sketchMix(z uint64) uint64 { return SplitMix64(z + 0x9E3779B97F4A7C15) }

// Add folds in one sample identified by key. Non-finite values are rejected
// with ErrNonFinite; duplicate keys are rejected too (they would break the
// set semantics merging relies on).
func (q *QuantileSketch) Add(x float64, key uint64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return ErrNonFinite
	}
	if q.K < 1 {
		q.K = 1
	}
	h := sketchMix(key)
	i := sort.Search(len(q.Entries), func(i int) bool { return q.Entries[i].Hash >= h })
	if i < len(q.Entries) && q.Entries[i].Hash == h {
		return fmt.Errorf("stats: duplicate sketch key %d", key)
	}
	q.Seen++
	if len(q.Entries) == q.K && i == q.K {
		return nil // hash larger than everything retained: not in the bottom k
	}
	if len(q.Entries) < q.K {
		q.Entries = append(q.Entries, SketchEntry{})
	} else {
		// Full: the largest hash falls off the end.
		i = min(i, q.K-1)
	}
	copy(q.Entries[i+1:], q.Entries[i:])
	q.Entries[i] = SketchEntry{Hash: h, Value: x}
	return nil
}

// Merge unions another sketch into q, keeping the bottom K hashes. The two
// sketches must not share keys. The result is exactly the sketch a single
// accumulator would have produced over the union of both sample sets.
//
// The merge runs in q's own backing array, growing it only while q holds
// fewer than K entries: a first pass counts how many of each side survive
// (and fails on a shared hash before anything is written), then the
// survivors are merged from the back, so no entry of q is overwritten
// before it is read. A value copy of q shares that array, so a caller
// keeping one must copy Entries first.
func (q *QuantileSketch) Merge(o QuantileSketch) error {
	if q.K < 1 {
		q.K = o.K
	}
	i, j, err := q.survivors(o)
	if err != nil {
		return err
	}
	a, b := q.Entries, o.Entries
	n := i + j
	if a == nil || cap(a) < n { // never nil after a merge: a checkpoint encodes [], not null
		q.Entries = make([]SketchEntry, n, min(q.K, max(n, 2*cap(a))))
		copy(q.Entries, a[:i])
	}
	out := q.Entries[:n]
	for k := n - 1; j > 0; k-- {
		if i > 0 && a[i-1].Hash > b[j-1].Hash {
			i--
			out[k] = a[i]
		} else {
			j--
			out[k] = b[j]
		}
	}
	q.Entries = out
	q.Seen += o.Seen
	return nil
}

// CheckMerge returns the error Merge(o) would return, changing nothing: a
// hash the two sketches share among the K smallest of their union.
func (q QuantileSketch) CheckMerge(o QuantileSketch) error {
	if q.K < 1 {
		q.K = o.K
	}
	_, _, err := q.survivors(o)
	return err
}

// survivors is Merge's first pass: how many of q's entries and of o's the
// K smallest hashes of their union take, or the hash the two share among
// them.
func (q *QuantileSketch) survivors(o QuantileSketch) (i, j int, err error) {
	a, b := q.Entries, o.Entries
	for i+j < q.K && (i < len(a) || j < len(b)) {
		switch {
		case i == len(a):
			j++
		case j == len(b), a[i].Hash < b[j].Hash:
			i++
		case a[i].Hash > b[j].Hash:
			j++
		default:
			return 0, 0, fmt.Errorf("stats: sketches share hash %d", a[i].Hash)
		}
	}
	return i, j, nil
}

// Quantile returns the p-th percentile estimate (0 ≤ p ≤ 100). It is exact
// while the sketch has retained every sample seen. ErrNoData on an empty
// sketch.
func (q QuantileSketch) Quantile(p float64) (float64, error) {
	if len(q.Entries) == 0 {
		return 0, ErrNoData
	}
	vals := make([]float64, len(q.Entries))
	for i, e := range q.Entries {
		vals[i] = e.Value
	}
	return Percentile(vals, p)
}

// Exact reports whether the sketch still retains every sample it has seen,
// making its quantiles exact rather than estimates.
func (q QuantileSketch) Exact() bool { return int64(len(q.Entries)) == q.Seen }

// Dist is the per-metric streaming aggregate a campaign keeps per group:
// moments, extrema and a quantile sketch, with non-finite samples filtered
// out and counted explicitly rather than silently corrupting the fold.
type Dist struct {
	Moments Welford        `json:"moments"`
	Sketch  QuantileSketch `json:"sketch"`
	// NonFinite counts samples rejected for being NaN or ±Inf.
	NonFinite int64 `json:"non_finite,omitempty"`
}

// NewDist returns a Dist whose sketch retains k samples.
func NewDist(k int) Dist { return Dist{Sketch: NewQuantileSketch(k)} }

// Add folds in one sample identified by key (unique per sample, e.g. the
// global session index). Non-finite samples increment NonFinite and are
// otherwise ignored; the error reports them to callers that care.
func (d *Dist) Add(x float64, key uint64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		d.NonFinite++
		return ErrNonFinite
	}
	if err := d.Moments.Add(x); err != nil {
		return err
	}
	return d.Sketch.Add(x, key)
}

// IgnoreNonFinite drops the error Dist.Add reports for a sample it filtered
// and counted — bare or wrapped — and passes every other error (a duplicate
// key) through: the tolerance every accumulator folding sessions shares.
func IgnoreNonFinite(err error) error {
	if errors.Is(err, ErrNonFinite) {
		return nil
	}
	return err
}

// Merge folds another Dist into d. Folds must run in a fixed order for
// bit-identical results (see the package determinism contract).
func (d *Dist) Merge(o Dist) error {
	d.Moments.Merge(o.Moments)
	d.NonFinite += o.NonFinite
	return d.Sketch.Merge(o.Sketch)
}
