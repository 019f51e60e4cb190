package abr

import (
	"time"

	"bba/internal/media"
	"bba/internal/units"
)

// TitlePlan is the Figure 12 reservoir for one (title, R_min, window): what
// of a BBA-1-family decision really is keyed by the session's promotion and
// lookahead. It holds the clamped dynamic reservoir of every decision chunk
// and the chunk map's two endpoints; the chunk sizes the reservoir scans
// depend on the title alone and live on media.Video.
//
// BBA-1 recomputes the reservoir before *every* decision over a 480 s
// lookahead — ~120 size lookups and unit conversions per chunk if done as
// DynamicReservoir writes it. The plan fills its table a page of planPage
// chunks at a time, on the first decision that asks for a chunk of the
// page: the page's deficits, and its lookahead's, are converted once, on
// the stack, and each chunk of the page scans them. A session that stops
// early never fills the pages it did not reach, and a campaign worker's
// sessions of one title share one table. Each deficit is the same
// downloadSecs−vSecs value DynamicReservoir computes from the same
// operands, summed in the same order, so every entry is bit-identical to
// it, which the tests pin.
//
// The table fills on first use, so a TitlePlan is not safe for concurrent
// use: an algorithm instance owns the plan it builds, and a shared plan
// belongs to the single goroutine that owns its PlanSource.
type TitlePlan struct {
	stream Stream          // the view the plan was built for; its title is the plan's identity
	rmin   units.BitRate   // session R_min the deficits assume
	window time.Duration   // lookahead window X of the Figure 12 scan
	chunks int             // X in chunks
	res    []time.Duration // reservoir per decision chunk; 0 until its page fills
	// chunkMin/chunkMax are the session ladder's map endpoints
	// l.Min().BytesIn(V) and l.Max().BytesIn(V).
	chunkMin, chunkMax int64
}

// planPage is how many reservoir entries one fill computes. planSpan is
// the deficit buffer a fill keeps on the stack: a page plus the lookahead
// of its last chunk, which covers windows up to 448 chunks (1 792 s at the
// paper's 4 s chunks); a longer window's fill takes its deficits from the
// heap.
const (
	planPage = 64
	planSpan = 512
)

// NewTitlePlan returns an empty plan for s with lookahead window (0 means
// DefaultReservoirWindow) and its map endpoints.
func NewTitlePlan(s Stream, window time.Duration) *TitlePlan {
	window = planWindow(window)
	v := s.ChunkDuration()
	l := s.Ladder()
	rmin := l.Min()
	return &TitlePlan{
		stream:   s,
		rmin:     rmin,
		window:   window,
		chunks:   int(window / v),
		res:      make([]time.Duration, s.NumChunks()),
		chunkMin: rmin.BytesIn(v),
		chunkMax: l.Max().BytesIn(v),
	}
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
	return tp != nil && tp.stream.video == s.video &&
		tp.rmin == s.ladder.Min() && tp.window == planWindow(window)
}

// Reservoir returns the dynamic reservoir for a decision at chunk k,
// filling k's page on its first read. Out of range k gets the empty-scan
// value.
func (tp *TitlePlan) Reservoir(k int) time.Duration {
	if k < 0 || k >= len(tp.res) {
		return clampReservoir(0)
	}
	if tp.res[k] == 0 { // a filled entry is ≥ MinReservoir
		tp.fill(k - k%planPage)
	}
	return tp.res[k]
}

// fill computes the page of entries from chunk first: DynamicReservoir's
// scan of each, over deficits converted once for the page and its
// lookahead.
func (tp *TitlePlan) fill(first int) {
	n := len(tp.res)
	last := min(first+planPage, n)
	end := min(last-1+tp.chunks, n) // the last entry's scan ends here
	var stack [planSpan]float64
	var deficit []float64
	if span := end - first; span <= planSpan {
		deficit = stack[:span]
	} else {
		deficit = make([]float64, span)
	}
	vSecs := tp.stream.ChunkDuration().Seconds()
	for i := range deficit {
		downloadSecs := float64(tp.stream.ChunkSize(0, first+i)*8) / float64(tp.rmin)
		deficit[i] = downloadSecs - vSecs
	}
	for k := first; k < last; k++ {
		var running, worst float64
		for _, d := range deficit[k-first : min(k+tp.chunks, n)-first] {
			running += d
			if running > worst {
				worst = running
				if worst >= maxReservoirSecs {
					break // clamp saturated; see DynamicReservoir
				}
			}
		}
		tp.res[k] = clampReservoir(worst)
	}
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
