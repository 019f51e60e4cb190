package media

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Video is a title encoded at every ladder rate, split into fixed-duration
// chunks. Chunk sizes are fixed at construction, so a Video is safe for
// concurrent use.
//
// The sizes are stored once, column-major — chunk k's sizes at every rate
// are one contiguous run, which is what a rate decision scans — next to
// per-rate prefix sums that make any window total two loads. Both depend on
// the title alone, so they live here rather than in anything keyed by a
// session's R_min or lookahead. What is keyed by those lives in the
// title's derived slot (Derived), so it dies with the title.
type Video struct {
	Title         string
	Ladder        Ladder
	ChunkDuration time.Duration // V in the paper; 4 s in the Netflix player
	nr, n         int           // ladder rates, chunks
	kbps          []float64     // kbps[rate]: Ladder[rate] in kb/s
	cols          []int64       // cols[k*nr+rate]: bytes of chunk k at rate
	prefix        []int64       // prefix[rate*(n+1)+k]: bytes of chunks [0,k) at rate
	derivedOnce   sync.Once
	derived       any
}

// Derived returns the value build made on the title's first call; every
// later call, from any goroutine, gets that same value and build is not
// called. It is the one slot for tables computed from the title's sizes —
// abr keeps the title's reservoir plans in it — so they are shared by
// every session of the title and live exactly as long as the title, with
// no process-wide map to pin it. The value must be safe for concurrent use.
func (v *Video) Derived(build func() any) any {
	v.derivedOnce.Do(func() { v.derived = build() })
	return v.derived
}

// DefaultChunkDuration is the paper's chunk length ("four seconds per chunk
// in our service").
const DefaultChunkDuration = 4 * time.Second

// newVideo builds the size index of a title whose ladder and chunk count
// the constructor has validated; fill writes one rate's chunk sizes into row.
func newVideo(title string, ladder Ladder, chunkDuration time.Duration, numChunks int, fill func(rate int, row []int64)) *Video {
	nr := len(ladder)
	v := &Video{
		Title: title, Ladder: ladder, ChunkDuration: chunkDuration,
		nr: nr, n: numChunks,
		kbps:   make([]float64, nr),
		cols:   make([]int64, nr*numChunks),
		prefix: make([]int64, nr*(numChunks+1)),
	}
	for rate, r := range ladder {
		v.kbps[rate] = r.Kilobits()
	}
	row := make([]int64, numChunks)
	for rate := 0; rate < nr; rate++ {
		fill(rate, row)
		sums := v.prefix[rate*(numChunks+1):]
		for k, size := range row {
			v.cols[k*nr+rate] = size
			sums[k+1] = sums[k] + size
		}
	}
	return v
}

// LadderKbps returns the ladder's rates in kb/s, index for index, computed
// once for the title. The slice aliases the title's storage: callers must
// not write to it.
func (v *Video) LadderKbps() []float64 { return v.kbps }

// NumChunks returns how many chunks the title has.
func (v *Video) NumChunks() int { return v.n }

// Duration returns the title's playback duration.
func (v *Video) Duration() time.Duration {
	return time.Duration(v.NumChunks()) * v.ChunkDuration
}

// ChunkSize returns the size in bytes of chunk k at ladder index rate.
// It panics on out-of-range arguments: indices always originate inside the
// library, so a violation is a programming error, not an input error.
func (v *Video) ChunkSize(rate, k int) int64 {
	if rate < 0 || rate >= v.nr || k < 0 || k >= v.n {
		v.chunkRangePanic(rate, k)
	}
	return v.cols[k*v.nr+rate]
}

// chunkRangePanic keeps the panic formatting out of ChunkSize so the hot
// lookup stays inlinable.
func (v *Video) chunkRangePanic(rate, k int) {
	if rate < 0 || rate >= v.nr {
		panic(fmt.Sprintf("media: rate index %d out of range [0,%d)", rate, v.nr))
	}
	panic(fmt.Sprintf("media: chunk index %d out of range [0,%d)", k, v.n))
}

// Column returns the sizes of chunk k at every ladder rate, lowest rate
// first, with k clamped into the title so decisions near either end stay
// defined. The slice aliases the title's storage: callers must not write
// to it.
func (v *Video) Column(k int) []int64 {
	if k >= v.n {
		k = v.n - 1
	}
	if k < 0 {
		k = 0
	}
	return v.cols[k*v.nr : (k+1)*v.nr : (k+1)*v.nr]
}

// WindowSum returns the total size at one rate of the window chunks
// starting at chunk k, each index clamped into the title exactly as Column
// clamps it — so a window hanging off either end counts the first or last
// chunk once per overhanging position. Integer addition is associative, so
// the prefix-sum form equals the chunk-by-chunk loop exactly.
func (v *Video) WindowSum(rate, k, window int) int64 {
	row := v.prefix[rate*(v.n+1) : (rate+1)*(v.n+1)]
	n := v.n
	lo, hi := k, k+window
	var sum int64
	if lo < 0 { // positions clamped up to chunk 0
		stop := hi
		if stop > 0 {
			stop = 0
		}
		sum += int64(stop-lo) * row[1]
		lo = 0
	}
	if hi > n { // positions clamped down to chunk n-1
		start := lo
		if start < n {
			start = n
		}
		sum += int64(hi-start) * (row[n] - row[n-1])
		hi = n
	}
	if hi > lo {
		sum += row[hi] - row[lo]
	}
	return sum
}

// NominalChunkSize returns the average chunk size V·R implied by the
// nominal rate — "Chunk_min and Chunk_max represent the average chunk size
// in R_min and R_max" in the paper's chunk-map construction.
func (v *Video) NominalChunkSize(rate int) int64 {
	return v.Ladder[rate].BytesIn(v.ChunkDuration)
}

// MeasuredAvgChunkSize returns the empirical mean chunk size at a rate.
func (v *Video) MeasuredAvgChunkSize(rate int) int64 {
	return v.WindowSum(rate, 0, v.n) / int64(v.n)
}

// MaxToAvgRatio returns the ratio of the largest chunk to the nominal
// average at a rate — the paper's "e", about 2 in their system.
func (v *Video) MaxToAvgRatio(rate int) float64 {
	var max int64
	for k := 0; k < v.n; k++ {
		if s := v.ChunkSize(rate, k); s > max {
			max = s
		}
	}
	return float64(max) / float64(v.NominalChunkSize(rate))
}

// ChunkSizes returns a copy of all chunk sizes at a rate, in bytes.
func (v *Video) ChunkSizes(rate int) []int64 {
	out := make([]int64, v.n)
	for k := range out {
		out[k] = v.ChunkSize(rate, k)
	}
	return out
}

// NewCBR builds a constant-bitrate title: every chunk at rate R has exactly
// V·R bytes. CBR is assumption 3 of the paper's Section 3 idealized model
// and is what BBA-0 was (implicitly) designed for.
func NewCBR(title string, ladder Ladder, chunkDuration time.Duration, numChunks int) (*Video, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if chunkDuration <= 0 {
		return nil, fmt.Errorf("media: non-positive chunk duration %v", chunkDuration)
	}
	if numChunks <= 0 {
		return nil, fmt.Errorf("media: non-positive chunk count %d", numChunks)
	}
	return newVideo(title, ladder, chunkDuration, numChunks, func(rate int, row []int64) {
		size := ladder[rate].BytesIn(chunkDuration)
		for k := range row {
			row[k] = size
		}
	}), nil
}

// FromSizes builds a Video from an explicit chunk-size matrix indexed as
// sizes[rateIndex][chunkIndex]. It is how a client reconstructs a title
// from a manifest. The matrix is copied.
func FromSizes(title string, ladder Ladder, chunkDuration time.Duration, sizes [][]int64) (*Video, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if chunkDuration <= 0 {
		return nil, fmt.Errorf("media: non-positive chunk duration %v", chunkDuration)
	}
	if len(sizes) != len(ladder) {
		return nil, fmt.Errorf("media: %d size rows for a %d-rate ladder", len(sizes), len(ladder))
	}
	if len(sizes[0]) == 0 {
		return nil, fmt.Errorf("media: no chunks")
	}
	for ri, row := range sizes {
		if len(row) != len(sizes[0]) {
			return nil, fmt.Errorf("media: rate %d has %d chunks, rate 0 has %d", ri, len(row), len(sizes[0]))
		}
		for k, s := range row {
			if s <= 0 {
				return nil, fmt.Errorf("media: rate %d chunk %d has non-positive size %d", ri, k, s)
			}
		}
	}
	return newVideo(title, ladder, chunkDuration, len(sizes[0]), func(rate int, row []int64) {
		copy(row, sizes[rate])
	}), nil
}

// VBRConfig names a scene-based variable-bitrate title. The activity
// model's shape is fixed by the constants below, so every VBR title has
// Figure 10's statistics.
type VBRConfig struct {
	Title         string
	Ladder        Ladder
	ChunkDuration time.Duration // default DefaultChunkDuration
	NumChunks     int           // default 1800 (a two-hour title at 4 s chunks)
}

// The VBR activity model, two levels deep:
//
//   - meanSequenceChunks is the average length of a sequence — a run of
//     related scenes sharing a baseline activity (an action set-piece, a
//     quiet dialogue stretch, the opening credits): about three minutes.
//     Sequences are what make the Figure 12 reservoir calculation matter:
//     a sustained heavy sequence at R_min needs far more reservoir than
//     BBA-0's fixed 90 seconds anticipates. sequenceSigma is the
//     log-stddev of per-sequence baseline activity.
//   - meanSceneChunks is the average scene length in chunks (about 30 s
//     scenes); scene lengths are geometric. sceneSigma is the log-stddev
//     of per-scene activity, which together with the clamps reproduces
//     Figure 10's spread.
//   - chunkJitter is the relative stddev of per-chunk noise within a scene.
//   - maxToAvg bounds the instantaneous-to-nominal rate ratio; the paper
//     measures e ≈ 2 (Figure 10). minToAvg bounds the quiet end (opening
//     credits encode "very few bits").
const (
	meanSequenceChunks = 45
	sequenceSigma      = 0.35
	meanSceneChunks    = 8
	sceneSigma         = 0.45
	chunkJitter        = 0.2
	maxToAvg           = 2
	minToAvg           = 0.25
)

func (c *VBRConfig) applyDefaults() {
	if c.ChunkDuration <= 0 {
		c.ChunkDuration = DefaultChunkDuration
	}
	if c.NumChunks <= 0 {
		c.NumChunks = 1800
	}
}

// NewVBR builds a variable-bitrate title. The activity process (scenes and
// per-chunk jitter) is drawn once and shared across all ladder rates, then
// normalized so that each encode's mean chunk size equals its nominal V·R
// within rounding. The generator is deterministic given rng's state.
func NewVBR(cfg VBRConfig, rng *rand.Rand) (*Video, error) {
	cfg.applyDefaults()
	if err := cfg.Ladder.Validate(); err != nil {
		return nil, err
	}
	factors := sceneFactors(cfg.NumChunks, rng)
	return newVideo(cfg.Title, cfg.Ladder, cfg.ChunkDuration, cfg.NumChunks, func(rate int, row []int64) {
		nominal := float64(cfg.Ladder[rate].BytesIn(cfg.ChunkDuration))
		for k, f := range factors {
			size := int64(nominal * f)
			if size < 1 {
				size = 1
			}
			row[k] = size
		}
	}), nil
}

// sceneFactors draws the shared activity process: a two-level model with
// per-sequence baseline activity (minutes) modulated by per-scene activity
// (tens of seconds) and per-chunk jitter, clamped to [minToAvg, maxToAvg]
// and renormalized to mean 1.
func sceneFactors(n int, rng *rand.Rand) []float64 {
	factors := make([]float64, n)
	k := 0
	seqLeft := 0
	seqActivity := 1.0
	for k < n {
		if seqLeft <= 0 {
			seqLeft = geometric(meanSequenceChunks, rng)
			seqActivity = math.Exp(sequenceSigma * rng.NormFloat64())
		}
		sceneLen := geometric(meanSceneChunks, rng)
		activity := clamp(seqActivity*math.Exp(sceneSigma*rng.NormFloat64()), minToAvg, maxToAvg)
		for i := 0; i < sceneLen && k < n; i++ {
			jitter := 1 + chunkJitter*rng.NormFloat64()
			if jitter < 0.5 {
				jitter = 0.5
			}
			factors[k] = clamp(activity*jitter, minToAvg, maxToAvg)
			k++
			seqLeft--
		}
	}
	// Renormalize to mean 1 so the nominal rate is the true average rate,
	// then reclamp: a second pass keeps both properties within tolerance.
	for pass := 0; pass < 2; pass++ {
		var sum float64
		for _, f := range factors {
			sum += f
		}
		mean := sum / float64(len(factors))
		for i := range factors {
			factors[i] = clamp(factors[i]/mean, minToAvg, maxToAvg)
		}
	}
	return factors
}

// geometric draws a geometric length with the given mean, at least 1 and
// at most 8× the mean.
func geometric(mean float64, rng *rand.Rand) int {
	n := 1
	p := 1 / mean
	for rng.Float64() > p && n < int(8*mean) {
		n++
	}
	return n
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
