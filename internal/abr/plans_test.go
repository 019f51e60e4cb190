package abr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bba/internal/media"
)

func planStream(t *testing.T, seed int64, chunks int) Stream {
	t.Helper()
	v, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: chunks}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return NewStream(v, 0)
}

// checkPlanReads reads tp at each of ks and requires the paper's full
// lookahead scan, exactly.
func checkPlanReads(t *testing.T, what string, tp *TitlePlan, s Stream, window time.Duration, ks []int) {
	t.Helper()
	for _, k := range ks {
		if got, want := tp.Reservoir(k), DynamicReservoir(s, k, window); got != want {
			t.Fatalf("%d chunks, window %v, chunk %d read %s: plan %v, scan %v", s.NumChunks(), window, k, what, got, want)
		}
	}
}

// TestTitlePlanMatchesSessionScan pins the plan's contract: every table
// entry equals the paper's full lookahead scan exactly — not approximately
// — whether the page-filled table is first read in decision order, out of
// order (a seek, or a worker's sessions of one title at different
// positions) or a second time. The titles put their last chunk inside the
// first page, on its last entry, on the next page's first and far beyond;
// the windows are the paper's 480 s, a shorter and a longer one, one that
// is not a multiple of V and one longer than the title, whose fill keeps
// its deficits on the heap. A fresh plan is first asked for chunk 63, 64
// or the last, and the fill of that page alone must be right.
func TestTitlePlanMatchesSessionScan(t *testing.T) {
	for _, chunks := range []int{1, 40, 64, 65, 700} {
		s := planStream(t, 7, chunks)
		v := s.ChunkDuration()
		windows := []time.Duration{0, 200 * time.Second, DefaultReservoirWindow, 1000 * time.Second,
			DefaultReservoirWindow + v/2 + 3*time.Second, time.Duration(chunks+3) * v}
		for _, window := range windows {
			var probes []int
			for _, k := range []int{63, 64, chunks - 1} {
				if k < chunks {
					probes = append(probes, k)
					checkPlanReads(t, "first", NewTitlePlan(s, window), s, window, []int{k})
				}
			}
			inOrder := make([]int, chunks)
			for k := range inOrder {
				inOrder[k] = k
			}
			shuffled := rand.New(rand.NewSource(int64(chunks))).Perm(chunks)

			tp := NewTitlePlan(s, window)
			checkPlanReads(t, "in order", tp, s, window, inOrder)
			checkPlanReads(t, "again, shuffled", tp, s, window, shuffled)
			tp = NewTitlePlan(s, window)
			checkPlanReads(t, "at the probes", tp, s, window, probes)
			checkPlanReads(t, "shuffled", tp, s, window, shuffled)
			checkPlanReads(t, "again, in order", tp, s, window, inOrder)
			// Out-of-range decisions get the empty-scan value.
			for _, k := range []int{-1, chunks, chunks + 100} {
				if got, want := tp.Reservoir(k), clampReservoir(0); got != want {
					t.Errorf("%d chunks, window %v: out-of-range chunk %d: reservoir %v, want %v", chunks, window, k, got, want)
				}
			}
		}
	}
}

// FuzzTitlePlan holds the page fill to the paper's scan over random VBR
// titles, promotions, windows and read orders: every entry == the scan.
func FuzzTitlePlan(f *testing.F) {
	f.Add(int64(7), uint16(700), uint8(0), uint32(480_000), int64(1))
	f.Add(int64(3), uint16(64), uint8(2), uint32(4_000), int64(2))
	f.Add(int64(5), uint16(65), uint8(1), uint32(3_000_000), int64(3))
	f.Add(int64(9), uint16(1), uint8(0), uint32(1), int64(4))
	f.Fuzz(func(t *testing.T, seed int64, chunks uint16, promote uint8, windowMs uint32, order int64) {
		n := 1 + int(chunks)%1200
		video, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: n}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		ladder := video.Ladder
		s := NewStream(video, ladder[int(promote)%len(ladder)])
		window := time.Duration(windowMs%5_000_000) * time.Millisecond
		tp := NewTitlePlan(s, window)
		checkPlanReads(t, "in random order", tp, s, window, rand.New(rand.NewSource(order)).Perm(n))
	})
}

// planWalk feeds one algorithm instance the decisions of one session over a
// plausible, reproducible buffer walk, a chunk per step.
type planWalk struct {
	alg    Algorithm
	stream Stream
	rng    *rand.Rand
	buf    time.Duration
	prev   int
	k      int
}

func newPlanWalk(alg Algorithm, stream Stream) *planWalk {
	return &planWalk{alg: alg, stream: stream, rng: rand.New(rand.NewSource(42)), prev: -1}
}

func (w *planWalk) done() bool { return w.k >= w.stream.NumChunks() }

func (w *planWalk) step() int {
	w.prev = w.alg.Next(State{
		Now:       time.Duration(w.k) * w.stream.ChunkDuration(),
		Buffer:    w.buf,
		BufferMax: 240 * time.Second,
		PrevIndex: w.prev,
		NextChunk: w.k,
	}, w.stream)
	w.k++
	w.buf += time.Duration(w.rng.Int63n(int64(6 * time.Second)))
	if w.buf > 220*time.Second {
		w.buf = 40 * time.Second
	}
	return w.prev
}

// TestSharedPlanDecisionsIdentical runs BBA-1, BBA-2 and BBA-Others
// through identical decision sequences, once on a private copy of the title
// (so the session alone fills its plan, in its own order) and once on the
// title every session shares, and requires identical rate choices and
// reservoir reports: sharing a plan moves who fills it, not arithmetic. The
// shared titles serve every algorithm, both titles and both promotions,
// first a session at a time and then with the sessions' decisions
// interleaved chunk by chunk, as a batch worker's lanes interleave them.
func TestSharedPlanDecisionsIdentical(t *testing.T) {
	views := func() []Stream {
		s, other := planStream(t, 11, 600), planStream(t, 12, 450)
		return []Stream{
			s, NewStream(s.Video(), s.Ladder()[2]),
			other, NewStream(other.Video(), other.Ladder()[2]),
		}
	}
	streams := views()
	builders := map[string]func() Algorithm{
		"BBA-1":      func() Algorithm { return NewBBA1() },
		"BBA-2":      func() Algorithm { return NewBBA2() },
		"BBA-Others": func() Algorithm { return NewBBAOthers() },
	}
	for name, build := range builders {
		want := make([][]int, len(streams))
		lanes := make([]*planWalk, len(streams))
		for i, stream := range streams {
			alone, shared := newPlanWalk(build(), views()[i]), newPlanWalk(build(), stream)
			for !alone.done() {
				a, b := alone.step(), shared.step()
				if a != b {
					t.Fatalf("%s stream %d chunk %d: private title chose %d, shared title chose %d", name, i, alone.k-1, a, b)
				}
				want[i] = append(want[i], a)
			}
			ra, pa, oka := alone.alg.(ReservoirReporter).LastReservoir()
			rb, pb, okb := shared.alg.(ReservoirReporter).LastReservoir()
			if ra != rb || pa != pb || oka != okb {
				t.Errorf("%s: reservoir report (%v,%v,%v) vs (%v,%v,%v)", name, ra, pa, oka, rb, pb, okb)
			}
			lanes[i] = newPlanWalk(build(), stream)
		}
		for running := true; running; {
			running = false
			for i, lane := range lanes {
				if lane.done() {
					continue
				}
				running = true
				if got := lane.step(); got != want[i][lane.k-1] {
					t.Fatalf("%s interleaved stream %d chunk %d: chose %d, private title chose %d", name, i, lane.k-1, got, want[i][lane.k-1])
				}
			}
		}
	}
	for _, i := range []int{0, 2} {
		tps := streams[i].Video().Derived(newTitlePlans).(*titlePlans)
		if got := len(tps.cache.m); got != 2 {
			t.Errorf("title %d holds %d plans for its two R_min views at one window", i, got)
		}
	}
}

// TestTitlePlanConcurrentReaders has eight goroutines read one shared plan
// at once, each in its own random chunk order, so pages are filled while
// others are read; every entry must equal the paper's scan. go test -race
// checks that each page is written once, under the plan's mutex, and
// published to every reader by its flag.
func TestTitlePlanConcurrentReaders(t *testing.T) {
	s := planStream(t, 21, 700)
	tp := s.plan(0)
	want := make([]time.Duration, s.NumChunks())
	for k := range want {
		want[k] = DynamicReservoir(s, k, 0)
	}
	start := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(want))
			<-start
			for _, k := range order {
				if got := tp.Reservoir(k); got != want[k] {
					errs <- fmt.Sprintf("goroutine %d chunk %d: plan %v, scan %v", g, k, got, want[k])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPlanCacheReuses checks the cache keys: same (title, R_min, window)
// returns the same plan; a promoted R_min or different window does not.
func TestPlanCacheReuses(t *testing.T) {
	s := planStream(t, 3, 300)
	cache := NewPlanCache()
	a := cache.TitlePlan(s, 0)
	if b := cache.TitlePlan(s, DefaultReservoirWindow); a != b {
		t.Error("window 0 and default window missed the cache")
	}
	if b := cache.TitlePlan(s, 0); a != b {
		t.Error("repeat lookup built a new plan")
	}
	promoted := NewStream(s.Video(), s.Ladder()[1])
	if b := cache.TitlePlan(promoted, 0); a == b {
		t.Error("promoted R_min shares the base plan")
	}
	if b := cache.TitlePlan(s, 100*time.Second); a == b {
		t.Error("different window shares the plan")
	}
	other := planStream(t, 4, 300)
	if b := cache.TitlePlan(other, 0); a == b {
		t.Error("different title shares the plan")
	}
}
