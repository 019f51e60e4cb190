package abr

import (
	"time"

	"bba/internal/media"
	"bba/internal/units"
)

// TitlePlan is the Figure 12 reservoir for one (title, R_min, window): what
// of a BBA-1-family decision really is keyed by the session's promotion and
// lookahead. It holds the per-chunk deficit series at capacity R_min, the
// clamped dynamic reservoir of every decision chunk, and the chunk map's two
// endpoints. (Chunk sizes and their window sums depend on the title alone
// and live on media.Video.)
//
// BBA-1 recomputes the reservoir before *every* decision over a 480 s
// lookahead — ~120 size lookups and unit conversions per chunk if done as
// DynamicReservoir writes it. The plan pays the conversions once per title
// pass and each chunk's scan once, on the first decision that asks for it:
// a session that stops early never scans the chunks it did not reach, and a
// campaign worker's sessions of one title share one table. The scan
// accumulates exactly the terms DynamicReservoir accumulates, in the same
// order — deficit[idx] is the same downloadSecs−vSecs value from the same
// operands — so every entry is bit-identical to it, which the tests pin.
//
// The table fills on first use, so a TitlePlan is not safe for concurrent
// use: an algorithm instance owns the plan it builds, and a shared plan
// belongs to the single goroutine that owns its PlanSource.
type TitlePlan struct {
	video   *media.Video    // identity of the title the plan was built for
	rmin    units.BitRate   // session R_min the deficits assume
	window  time.Duration   // lookahead window X of the Figure 12 scan
	chunks  int             // X in chunks
	deficit []float64       // per-chunk buffer deficit at capacity R_min, seconds
	res     []time.Duration // reservoir per decision chunk; 0 until first asked for
	// chunkMin/chunkMax are the session ladder's map endpoints
	// l.Min().BytesIn(V) and l.Max().BytesIn(V).
	chunkMin, chunkMax int64
}

// NewTitlePlan precomputes the deficit series and map endpoints for s with
// lookahead window (0 means DefaultReservoirWindow).
func NewTitlePlan(s Stream, window time.Duration) *TitlePlan {
	window = planWindow(window)
	v := s.ChunkDuration()
	vSecs := v.Seconds()
	l := s.Ladder()
	rmin := l.Min()
	n := s.NumChunks()
	tp := &TitlePlan{
		video:    s.Video(),
		rmin:     rmin,
		window:   window,
		chunks:   int(window / v),
		deficit:  make([]float64, n),
		res:      make([]time.Duration, n),
		chunkMin: rmin.BytesIn(v),
		chunkMax: l.Max().BytesIn(v),
	}
	for idx := range tp.deficit {
		downloadSecs := float64(s.ChunkSize(0, idx)*8) / float64(rmin)
		tp.deficit[idx] = downloadSecs - vSecs
	}
	return tp
}

// planWindow resolves the "0 means default" window convention once, so plan
// identity compares resolved values.
func planWindow(window time.Duration) time.Duration {
	if window <= 0 {
		return DefaultReservoirWindow
	}
	return window
}

// matches reports whether the plan was built for this exact stream view
// and window: same title, same (possibly promoted) R_min, same lookahead.
func (tp *TitlePlan) matches(s Stream, window time.Duration) bool {
	return tp != nil && tp.video == s.video &&
		tp.rmin == s.ladder.Min() && tp.window == planWindow(window)
}

// Reservoir returns the dynamic reservoir for a decision at chunk k:
// DynamicReservoir over the precomputed deficits, scanned once per chunk.
// Out of range k gets the empty-scan value.
func (tp *TitlePlan) Reservoir(k int) time.Duration {
	if k < 0 || k >= len(tp.res) {
		return clampReservoir(0)
	}
	if r := tp.res[k]; r != 0 { // a filled entry is ≥ MinReservoir
		return r
	}
	end := k + tp.chunks
	if end > len(tp.deficit) {
		end = len(tp.deficit)
	}
	var running, worst float64
	for _, d := range tp.deficit[k:end] {
		running += d
		if running > worst {
			worst = running
			if worst >= maxReservoirSecs {
				break // clamp saturated; see DynamicReservoir
			}
		}
	}
	tp.res[k] = clampReservoir(worst)
	return tp.res[k]
}

// PlanSource supplies shared TitlePlans. The algorithm asks for the plan
// it needs (its own window, the session's stream view), so sources stay
// ignorant of algorithm parameters.
type PlanSource interface {
	TitlePlan(s Stream, window time.Duration) *TitlePlan
}

// PlanConsumer is implemented by algorithms that read a TitlePlan. Left
// alone, an instance builds and owns its plan; a caller running many
// sessions over a small catalog on one goroutine (the batch kernel, and so
// every campaign and arena) attaches one source to every freshly built
// algorithm so they share the tables. Attaching a source changes who owns
// the plan, never what is computed from it.
type PlanConsumer interface {
	UsePlans(PlanSource)
}

type planKey struct {
	video  *media.Video
	rmin   units.BitRate
	window time.Duration
}

// PlanCache builds TitlePlans on demand and retains them keyed by
// (title, R_min, window). Neither it nor the plans it hands out are safe
// for concurrent use: each campaign worker owns one cache, and every
// algorithm it is attached to runs on that worker's goroutine.
type PlanCache struct {
	m map[planKey]*TitlePlan
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache { return &PlanCache{m: make(map[planKey]*TitlePlan)} }

// TitlePlan implements PlanSource.
func (c *PlanCache) TitlePlan(s Stream, window time.Duration) *TitlePlan {
	window = planWindow(window)
	k := planKey{video: s.Video(), rmin: s.Ladder().Min(), window: window}
	tp := c.m[k]
	if tp == nil {
		tp = NewTitlePlan(s, window)
		c.m[k] = tp
	}
	return tp
}
