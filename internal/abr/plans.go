package abr

import (
	"sync"
	"sync/atomic"
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
// early never fills the pages it did not reach. Each deficit is the same
// downloadSecs−vSecs value DynamicReservoir computes from the same
// operands, summed in the same order, so every entry is bit-identical to
// it, which the tests pin.
//
// A TitlePlan is safe for concurrent use, and the plans sessions decide on
// are shared: Stream.plan keeps one per (title, R_min, window) per process,
// on the title. A page is filled under the plan's mutex and published by
// its flag, so a read is one atomic load and a table index, and every
// reader of a published page sees the filled entries.
type TitlePlan struct {
	stream Stream          // the view the plan was built for; its title is the plan's identity
	rmin   units.BitRate   // session R_min the deficits assume
	window time.Duration   // lookahead window X of the Figure 12 scan
	chunks int             // X in chunks
	res    []time.Duration // reservoir per decision chunk, valid once its page is filled
	filled []atomic.Bool   // per page: res[page*planPage:][:planPage] is written
	mu     sync.Mutex      // serialises fills
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
		filled:   make([]atomic.Bool, (s.NumChunks()+planPage-1)/planPage),
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
	if !tp.filled[k/planPage].Load() {
		tp.fill(k / planPage)
	}
	return tp.res[k]
}

// fill computes page's entries, unless another reader got there first:
// DynamicReservoir's scan of each, over deficits converted once for the
// page and its lookahead.
func (tp *TitlePlan) fill(page int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.filled[page].Load() {
		return
	}
	n := len(tp.res)
	first := page * planPage
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
	tp.filled[page].Store(true)
}

type planKey struct {
	video  *media.Video
	rmin   units.BitRate
	window time.Duration
}

// PlanCache builds TitlePlans on demand and retains them keyed by
// (title, R_min, window): a private set of plans, apart from the shared
// ones sessions decide on. It is not safe for concurrent use.
type PlanCache struct {
	m map[planKey]*TitlePlan
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache { return &PlanCache{m: make(map[planKey]*TitlePlan)} }

// TitlePlan returns the cache's plan for s's view at window, building it
// on the first ask.
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

// titlePlans is what abr keeps in a title's derived slot: its shared
// plans, one per (R_min, window) any session has asked for.
type titlePlans struct {
	mu    sync.Mutex
	cache PlanCache
}

func newTitlePlans() any { return &titlePlans{cache: PlanCache{m: make(map[planKey]*TitlePlan)}} }

// plan returns the process's one plan for s's view at window: every session
// of the title at that R_min and window reads the same table, and the plan
// lives on the title (media.Video.Derived), so it dies with it.
func (s Stream) plan(window time.Duration) *TitlePlan {
	tps := s.video.Derived(newTitlePlans).(*titlePlans)
	tps.mu.Lock()
	defer tps.mu.Unlock()
	return tps.cache.TitlePlan(s, window)
}
