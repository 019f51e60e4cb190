package player

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/buffer"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// The paper's §3.1 theorems (proved in its tech report, arXiv 1401.2209),
// held by the discrete player the experiments use. Theorem 1: with
// C(t) ≥ R_min and f pinned at R_min, no unnecessary rebuffer. Theorem 2:
// with R_min < C(t) < R_max, the mean rate tracks the mean capacity. Each
// row runs one algorithm on a title and a Markov trace floored at C_min
// and capped under R_max, and checks both.
//
// Theorem 1, discrete. A download started at buffer B over a link that
// never drops below C_min ends within bits/C_min, so no decision can
// rebuffer if every chunk a decision at B may request has
// bits ≤ B·C_min. After the first chunk B ≥ V at every decision (each
// download ends with B ≥ 0 and adds V), so the hypothesis is
//
//	worst(B) ≤ B·C_min  for every B in [V, B_max],
//
// where worst(B) is the largest chunk, in bits, the algorithm can request
// at B whatever its history. C_min is the largest chunk at R_min over V:
// R_min itself for CBR, R_min × the title's max/mean chunk ratio for VBR
// (without that slack a max-size R_min chunk after startup, at B = V, takes
// 2V). The check below is sound for any non-decreasing worst: on a grid of
// step δ it asks worst(b+δ) ≤ b·C_min, which bounds every B in [b, b+δ].
//
//   - Algorithm 1 over a rate map f (abr.Custom, BBA-0) picks at most
//     min{R_i : R_i > f(B)}, the rung above f(B) (hold, step up and step
//     down all land at or under it), and R_min in the reservoir. So
//     worst(B) = maxChunk(rung above f(B)). A random admissible map is
//     clipped under the hypothesis: where rung j is the highest whose
//     largest chunk downloads at C_min within B − δ, f ≤ R_j − 1 b/s.
//   - The chunk map (BBA-1, BBA-2 after startup) picks R_min in the
//     reservoir (≥ abr.MinReservoir), the top rung from
//     RampEndFraction·B_max, and between them at most the smallest of
//     chunk k's sizes at or above the map's cap: its R_min size, or one
//     < ρ·cap, ρ the largest ratio of adjacent sizes in a chunk. The reservoir and
//     protection only shift the map right, so cap ≤ the map with the
//     smallest reservoir. worst is then affine between two checked ends.
//   - BBA-2's startup ramp steps up on throughput, not buffer, so its
//     decisions are outside the hypothesis: a rebuffer there is not
//     counted; from the decision that ends startup on, one is.
//
// Theorem 2, discrete. The link is busy except while the player idles
// (ON-OFF wait W), so the bits delivered, r̄·D with D = N·V, equal
// c̄·T − ∫_W C, T being the end of the last download and c̄ the mean
// capacity over [0, T]. Playback accounts T − D = join + stall − B_end, so
//
//	|r̄ − c̄|·D ≤ c̄·max(join + stall, B_end) + W·C_max.
//
// Under theorem 1's hypothesis the stall is 0. W is 0 on CBR when the map
// is pinned at R_max from B_max − 2V on: a decision below that adds at
// most V and one above it fetches R_max > C, so no decision waits for
// space. That holds for the random maps (pinned there) and BBA-0 (R_max
// from 216 s). On VBR a quiet chunk at R_max downloads faster than V, so
// the player may idle and W stays in the bound.
type theoremRow struct {
	name  string
	vbr   bool
	seeds int
	// alg builds the row's algorithm on s, its worst(B) in bits, and a
	// description of the map for failure messages.
	alg func(rng *rand.Rand, s abr.Stream, b titleBounds) (abr.Algorithm, func(time.Duration) float64, string)
	// held reports whether the last decision was under the hypothesis
	// (nil: all of them).
	held func(abr.Algorithm) bool
	// noIdle: the derivation above gives W = 0.
	noIdle bool
	// unpinned: the hypothesis must be refused and the row must rebuffer.
	unpinned bool
}

var theoremRows = []theoremRow{
	{name: "random-map-CBR", seeds: 40, alg: randomMapAlg, noIdle: true},
	{name: "random-map-VBR", vbr: true, seeds: 40, alg: randomMapAlg},
	{name: "BBA-0-CBR", seeds: 10, noIdle: true, alg: func(_ *rand.Rand, s abr.Stream, b titleBounds) (abr.Algorithm, func(time.Duration) float64, string) {
		a := abr.NewBBA0()
		m := a.Map(s, buffer.DefaultMax)
		return a, func(B time.Duration) float64 {
			if B <= m.Reservoir {
				return b.maxBits[0]
			}
			return b.maxBits[s.Ladder().LowestAbove(m.Rate(B))]
		}, fmt.Sprintf("%+v", m)
	}},
	{name: "BBA-1-VBR", vbr: true, seeds: 10, alg: func(_ *rand.Rand, s abr.Stream, b titleBounds) (abr.Algorithm, func(time.Duration) float64, string) {
		a := abr.NewBBA1()
		return a, chunkMapWorst(a, s, b), "BBA-1 chunk map"
	}},
	{name: "BBA-2-VBR", vbr: true, seeds: 10, alg: func(_ *rand.Rand, s abr.Stream, b titleBounds) (abr.Algorithm, func(time.Duration) float64, string) {
		a := abr.NewBBA2()
		return a, chunkMapWorst(abr.NewBBA1(), s, b), "BBA-2 chunk map after startup"
	}, held: func(a abr.Algorithm) bool { return !a.(*abr.BBA2).InStartup() }},
	// The hypothesis is load-bearing: a map floored at 1.5 Mb/s instead of
	// pinned at R_min rebuffers on a 500 kb/s link, though C > R_min.
	{name: "unpinned-CBR", seeds: 1, unpinned: true, alg: func(_ *rand.Rand, s abr.Stream, b titleBounds) (abr.Algorithm, func(time.Duration) float64, string) {
		m := abr.NewBBA0().Map(s, buffer.DefaultMax)
		f := func(B time.Duration) units.BitRate { return max(m.Rate(B), 1500*units.Kbps) }
		return abr.NewCustom("unpinned", func(B, _ time.Duration) units.BitRate { return f(B) }),
			rateMapWorst(s, b, f), "BBA-0's map floored at 1.5 Mb/s"
	}},
}

// titleBounds are the per-title quantities the hypotheses are stated in.
type titleBounds struct {
	maxBits []float64     // largest chunk at each rung, bits
	rho     float64       // largest ratio of adjacent sizes within a chunk
	cmin    units.BitRate // the largest R_min chunk over V, rounded up
}

func boundsOf(s abr.Stream) titleBounds {
	b := titleBounds{maxBits: make([]float64, len(s.Ladder())), rho: 1}
	for k := 0; k < s.NumChunks(); k++ {
		col := s.Column(k)
		for i, sz := range col {
			b.maxBits[i] = max(b.maxBits[i], float64(8*sz))
			if i > 0 {
				b.rho = max(b.rho, float64(sz)/float64(col[i-1]))
			}
		}
	}
	b.cmin = units.BitRate(math.Ceil(b.maxBits[0] / s.ChunkDuration().Seconds()))
	return b
}

// safe is the highest rung whose largest chunk downloads at C_min within
// B, or 0 when none does.
func (b titleBounds) safe(B time.Duration) int {
	return max(0, sort.Search(len(b.maxBits), func(i int) bool {
		return b.maxBits[i] > B.Seconds()*float64(b.cmin)
	})-1)
}

// hypothesisStep is the grid step δ of the theorem 1 check.
const hypothesisStep = 10 * time.Millisecond

// hypothesis returns the first grid buffer b ≥ v at which worst(b+δ) >
// b·C_min, or -1 when theorem 1's hypothesis holds on [v, bufMax].
func hypothesis(worst func(time.Duration) float64, v, bufMax time.Duration, cmin units.BitRate) time.Duration {
	for b := v; b < bufMax; b += hypothesisStep {
		if worst(b+hypothesisStep) > b.Seconds()*float64(cmin) {
			return b
		}
	}
	return -1
}

func rateMapWorst(s abr.Stream, b titleBounds, f func(time.Duration) units.BitRate) func(time.Duration) float64 {
	l := s.Ladder()
	return func(B time.Duration) float64 {
		if r := f(B); r > l.Min() {
			return b.maxBits[l.LowestAbove(r)]
		}
		return b.maxBits[0]
	}
}

func chunkMapWorst(a *abr.BBA1, s abr.Stream, b titleBounds) func(time.Duration) float64 {
	rampEnd := time.Duration(a.RampEndFraction * float64(buffer.DefaultMax))
	m := a.Map(s, 0, buffer.DefaultMax)
	m.Reservoir, m.Cushion = abr.MinReservoir, rampEnd-abr.MinReservoir
	top := b.maxBits[len(b.maxBits)-1]
	return func(B time.Duration) float64 {
		switch {
		case B <= m.Reservoir:
			return b.maxBits[0]
		case B >= rampEnd:
			return max(top, b.rho*float64(8*m.ChunkMax))
		}
		return max(b.maxBits[0], b.rho*float64(8*m.MaxChunk(B)))
	}
}

// randomMapAlg is abr.Custom over a random admissible map: piecewise
// linear and non-decreasing through 1–6 sorted random knots, R_min at
// B = 0, R_max from B_max − 2V on, clipped under theorem 1's hypothesis.
func randomMapAlg(rng *rand.Rand, s abr.Stream, b titleBounds) (abr.Algorithm, func(time.Duration) float64, string) {
	l, top := s.Ladder(), buffer.DefaultMax-2*s.ChunkDuration()
	xs, ys := []time.Duration{0}, []float64{0}
	for range 1 + rng.Intn(6) {
		xs = append(xs, time.Duration(rng.Int63n(int64(top))))
		ys = append(ys, rng.Float64())
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.Float64s(ys)
	xs, ys = append(xs, top), append(ys, 1)
	f := func(B time.Duration) units.BitRate {
		i := sort.Search(len(xs), func(i int) bool { return xs[i] > B })
		y := 1.0
		if i < len(xs) {
			y = ys[i-1] + (ys[i]-ys[i-1])*float64(B-xs[i-1])/float64(xs[i]-xs[i-1])
		}
		r := l.Min() + units.BitRate(y*float64(l.Max()-l.Min()))
		switch j := b.safe(B - hypothesisStep); {
		case j == 0:
			return l.Min()
		case j < len(l)-1:
			return min(r, l[j]-1)
		}
		return r
	}
	knots := "knots"
	for i := range xs {
		knots += fmt.Sprintf(" (%v, %.0f kb/s)", xs[i], l.Min().Kilobits()+ys[i]*(l.Max()-l.Min()).Kilobits())
	}
	return abr.NewCustom("random-map", func(B, _ time.Duration) units.BitRate { return f(B) }),
		rateMapWorst(s, b, f), knots
}

// theoremChunks is every row's title length: three hours, so theorem 2's
// bound, B_max/D on CBR, is 2.2 %.
const theoremChunks = 2700

// outcome is one seed of a row played out: what each theorem's check reads.
type outcome struct {
	row, desc  string
	seed       int64
	cfg        trace.MarkovConfig
	at         time.Duration // first grid buffer where the hypothesis fails, or -1
	worstAt    float64       // worst(at+δ)
	cmin       units.BitRate
	held       int // rebuffers under the hypothesis
	stall      time.Duration
	idle       time.Duration
	rbar, cbar float64 // b/s
	bound      float64 // theorem 2's bound on |r̄ − c̄|, b/s
}

func (o *outcome) fail(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf("%s seed %d, %s, trace %+v: %s", o.row, o.seed, o.desc, o.cfg, fmt.Sprintf(format, args...))
}

func play(t *testing.T, row theoremRow, seed int64) outcome {
	rng := rand.New(rand.NewSource(seed))
	var v *media.Video
	var err error
	if row.vbr {
		v, err = media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: theoremChunks}, rng)
	} else {
		v, err = media.NewCBR("cbr", media.DefaultLadder(), media.DefaultChunkDuration, theoremChunks)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := abr.NewStream(v, 0)
	b := boundsOf(s)
	alg, worst, desc := row.alg(rng, s, b)
	o := outcome{row: row.name, desc: desc, seed: seed, cmin: b.cmin}
	o.cfg = trace.MarkovConfig{Base: 1500 * units.Kbps, Sigma: 1.2, Duration: v.Duration(), Floor: b.cmin, Ceiling: 4500 * units.Kbps}
	tr := trace.Markov(o.cfg, rng)
	if row.unpinned {
		tr = trace.Constant(500*units.Kbps, v.Duration())
	}
	o.at = hypothesis(worst, s.ChunkDuration(), buffer.DefaultMax, b.cmin)
	o.worstAt = worst(o.at + hypothesisStep)

	var ss Session
	capture := &telemetry.Capture{}
	if err := ss.Start(Config{Algorithm: alg, Stream: s, Trace: tr, Observer: capture}); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		before := ss.buf.Rebuffers()
		if done, err = ss.Step(); err != nil {
			t.Fatal(err)
		}
		if row.held == nil || row.held(alg) {
			o.held += ss.buf.Rebuffers() - before
		}
	}
	res := ss.Result()
	o.stall = res.StallTime

	log := chunkLog(capture.Events)
	last := log[len(log)-1]
	end := last.Start + last.Download
	var bits float64
	o.idle = end
	for _, c := range log {
		bits += float64(8 * c.Bytes)
		o.idle -= c.Download
	}
	d := (time.Duration(len(log)) * s.ChunkDuration()).Seconds()
	o.rbar, o.cbar = bits/d, float64(8*tr.BytesBetween(0, end))/end.Seconds()
	o.bound = (o.cbar*max(res.JoinDelay+res.StallTime, last.BufferAfter).Seconds() + float64(o.cfg.Ceiling)*o.idle.Seconds()) / d
	return o
}

// theorem1 checks the hypothesis and that no decision under it
// rebuffered; on the un-pinned row, that the hypothesis is refused and the
// row rebuffers.
func (o *outcome) theorem1(t *testing.T, row theoremRow) {
	t.Helper()
	switch {
	case row.unpinned && o.at < 0:
		o.fail(t, "hypothesis accepted")
	case row.unpinned && o.held == 0:
		o.fail(t, "never rebuffered")
	case row.unpinned:
	case o.at >= 0:
		o.fail(t, "hypothesis fails at B = %v: worst %.0f bits over C_min %v", o.at, o.worstAt, o.cmin)
	case o.held > 0:
		o.fail(t, "theorem 1: %d rebuffers under the hypothesis (%v stalled)", o.held, o.stall)
	}
}

func (o *outcome) theorem2(t *testing.T, row theoremRow) {
	t.Helper()
	if row.noIdle && o.idle > 0 {
		o.fail(t, "theorem 2: idled %v", o.idle)
	}
	if math.Abs(o.rbar-o.cbar) > o.bound {
		o.fail(t, "theorem 2: mean rate %.0f vs mean capacity %.0f b/s, bound %.0f (idle %v)", o.rbar, o.cbar, o.bound, o.idle)
	}
}

// checkTheorems plays the row on each seed, then checks theorem 1 and
// theorem 2 as the subtests "theorem-1" and "theorem-2" (the un-pinned
// row, a counterexample to theorem 1's hypothesis, has no theorem 2).
func checkTheorems(t *testing.T, row theoremRow, seeds ...int64) {
	out := make([]outcome, len(seeds))
	for i, seed := range seeds {
		out[i] = play(t, row, seed)
	}
	t.Run("theorem-1", func(t *testing.T) {
		for i := range out {
			out[i].theorem1(t, row)
		}
	})
	if !row.unpinned {
		t.Run("theorem-2", func(t *testing.T) {
			for i := range out {
				out[i].theorem2(t, row)
			}
		})
	}
}

func TestTheorems(t *testing.T) {
	for _, row := range theoremRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			seeds := make([]int64, row.seeds)
			for i := range seeds {
				seeds[i] = int64(i + 1)
			}
			checkTheorems(t, row, seeds...)
		})
	}
}

// FuzzTheorems explores seeds: a seed picks the title, the random map and
// the trace.
func FuzzTheorems(f *testing.F) {
	for i := range theoremRows {
		f.Add(int64(i+1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, row uint8) {
		checkTheorems(t, theoremRows[int(row)%len(theoremRows)], seed)
	})
}
