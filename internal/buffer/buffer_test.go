package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// New is the tests' constructor: a fresh buffer Reset to capacity max.
func New(max time.Duration) *Buffer {
	b := new(Buffer)
	b.Reset(max)
	return b
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestPlaybackStartsOnFirstChunk(t *testing.T) {
	b := New(DefaultMax)
	if b.Started() || b.Playing() {
		t.Error("fresh buffer should not be playing")
	}
	// Join delay: time before the first chunk does not count as played or
	// stalled.
	b.Advance(5 * time.Second)
	if b.Played() != 0 || b.StallTime() != 0 || b.Rebuffers() != 0 {
		t.Error("pre-playback time was accounted")
	}
	if err := b.AddChunk(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !b.Playing() {
		t.Error("playback should start with the first chunk")
	}
	if b.Level() != 4*time.Second {
		t.Errorf("level = %v", b.Level())
	}
}

func TestDrainAndPlay(t *testing.T) {
	b := New(DefaultMax)
	must(t, b.AddChunk(8*time.Second))
	b.Advance(3 * time.Second)
	if b.Level() != 5*time.Second {
		t.Errorf("level = %v, want 5s", b.Level())
	}
	if b.Played() != 3*time.Second {
		t.Errorf("played = %v, want 3s", b.Played())
	}
	if b.Rebuffers() != 0 {
		t.Errorf("rebuffers = %d", b.Rebuffers())
	}
}

func TestRebufferEvent(t *testing.T) {
	b := New(DefaultMax)
	b.SetResume(0) // classic semantics: resume on first arrival
	must(t, b.AddChunk(4*time.Second))
	// A 10s download against a 4s buffer: 4s played, 6s stalled.
	b.Advance(10 * time.Second)
	if b.Rebuffers() != 1 {
		t.Fatalf("rebuffers = %d, want 1", b.Rebuffers())
	}
	if b.StallTime() != 6*time.Second {
		t.Errorf("stall = %v, want 6s", b.StallTime())
	}
	if b.Played() != 4*time.Second {
		t.Errorf("played = %v, want 4s", b.Played())
	}
	if b.Playing() {
		t.Error("should be stalled")
	}
	// Stall continues across further waiting without double-counting the
	// event.
	b.Advance(5 * time.Second)
	if b.Rebuffers() != 1 {
		t.Errorf("rebuffers = %d after continued stall, want 1", b.Rebuffers())
	}
	if b.StallTime() != 11*time.Second {
		t.Errorf("stall = %v, want 11s", b.StallTime())
	}
	// Chunk arrival ends the stall.
	must(t, b.AddChunk(4*time.Second))
	if !b.Playing() {
		t.Error("arrival should resume playback")
	}
	// A later dry spell is a distinct event.
	b.Advance(10 * time.Second)
	if b.Rebuffers() != 2 {
		t.Errorf("rebuffers = %d, want 2", b.Rebuffers())
	}
}

func TestExactDrainIsNotARebuffer(t *testing.T) {
	b := New(DefaultMax)
	must(t, b.AddChunk(4*time.Second))
	// Chunk arrives exactly as the buffer empties: no stall, no event.
	b.Advance(4 * time.Second)
	if b.Rebuffers() != 0 {
		t.Errorf("rebuffers = %d, want 0 on exact drain", b.Rebuffers())
	}
	if b.Level() != 0 {
		t.Errorf("level = %v", b.Level())
	}
	must(t, b.AddChunk(4*time.Second))
	if !b.Playing() {
		t.Error("should be playing")
	}
}

func TestResumeThresholdCoalescesStalls(t *testing.T) {
	// With capacity below the lowest video rate a player without a resume
	// threshold would record one rebuffer per chunk; the threshold
	// coalesces the starvation into a single longer event.
	b := New(DefaultMax) // default resume: 8 s (two chunks)
	must(t, b.AddChunk(4*time.Second))
	b.Advance(10 * time.Second) // starve: stall begins
	if b.Rebuffers() != 1 {
		t.Fatalf("rebuffers = %d", b.Rebuffers())
	}
	// One chunk arrives but is below the threshold: still stalled, and
	// critically NOT a new rebuffer event.
	must(t, b.AddChunk(4*time.Second))
	if b.Playing() {
		t.Error("resumed below the threshold")
	}
	b.Advance(10 * time.Second)
	if b.Rebuffers() != 1 {
		t.Errorf("rebuffers = %d, want the same single event", b.Rebuffers())
	}
	// The second chunk reaches 8 s: playback resumes.
	must(t, b.AddChunk(4*time.Second))
	if !b.Playing() {
		t.Error("did not resume at the threshold")
	}
	// All starvation time was accounted to the one event.
	if b.StallTime() != 16*time.Second {
		t.Errorf("stall = %v, want 16s", b.StallTime())
	}
}

func TestResume(t *testing.T) {
	b := New(DefaultMax)
	must(t, b.AddChunk(4*time.Second))
	b.Advance(10 * time.Second)
	must(t, b.AddChunk(4*time.Second)) // below threshold: still stalled
	b.Resume()
	if !b.Playing() {
		t.Error("Resume did not end the stall")
	}
	// Resume on a never-started buffer is a no-op.
	fresh := New(DefaultMax)
	fresh.Resume()
	if fresh.Playing() {
		t.Error("Resume started playback without any chunk")
	}
}

func TestSetResumeClampsNegative(t *testing.T) {
	b := New(DefaultMax)
	b.SetResume(-time.Second)
	must(t, b.AddChunk(4*time.Second))
	b.Advance(10 * time.Second)
	must(t, b.AddChunk(4*time.Second))
	if !b.Playing() {
		t.Error("zero threshold should resume on first arrival")
	}
}

func TestAddChunkValidation(t *testing.T) {
	b := New(DefaultMax)
	if err := b.AddChunk(0); err == nil {
		t.Error("zero-duration chunk accepted")
	}
	if err := b.AddChunk(-time.Second); err == nil {
		t.Error("negative chunk accepted")
	}
}

func TestOverflowClampsAndReports(t *testing.T) {
	b := New(10 * time.Second)
	must(t, b.AddChunk(8*time.Second))
	err := b.AddChunk(4 * time.Second)
	if err == nil {
		t.Fatal("overflow not reported")
	}
	if b.Level() != 10*time.Second {
		t.Errorf("level = %v, want clamped 10s", b.Level())
	}
}

func TestSpaceQueries(t *testing.T) {
	b := New(10 * time.Second)
	must(t, b.AddChunk(8*time.Second))
	if !b.HasSpaceFor(2 * time.Second) {
		t.Error("2s should fit")
	}
	if b.HasSpaceFor(3 * time.Second) {
		t.Error("3s should not fit")
	}
	if got := b.TimeUntilSpaceFor(4 * time.Second); got != 2*time.Second {
		t.Errorf("TimeUntilSpaceFor(4s) = %v, want 2s", got)
	}
	if got := b.TimeUntilSpaceFor(time.Second); got != 0 {
		t.Errorf("TimeUntilSpaceFor(1s) = %v, want 0", got)
	}
}

func TestAdvanceNonPositive(t *testing.T) {
	b := New(DefaultMax)
	must(t, b.AddChunk(4*time.Second))
	b.Advance(0)
	b.Advance(-time.Second)
	if b.Level() != 4*time.Second || b.Played() != 0 {
		t.Error("non-positive Advance changed state")
	}
}

// Property: accounting conserves time. For any sequence of operations,
// played + stalled equals total advanced time after playback start, and the
// level never goes negative or above capacity.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(DefaultMax)
		var advanced time.Duration
		must := func(err error) {} // overflow errors irrelevant here
		_ = must
		for i := 0; i < int(steps%60)+5; i++ {
			if rng.Intn(2) == 0 {
				d := time.Duration(rng.Intn(10000)) * time.Millisecond
				if b.Started() {
					advanced += d
				}
				b.Advance(d)
			} else if b.HasSpaceFor(4 * time.Second) {
				_ = b.AddChunk(4 * time.Second)
			}
			if b.Level() < 0 || b.Level() > DefaultMax {
				return false
			}
		}
		return b.Played()+b.StallTime() == advanced
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: rebuffer events only occur when the buffer actually runs dry:
// as long as every Advance is shorter than the current level, no event
// fires.
func TestQuickNoSpuriousRebuffers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(DefaultMax)
		_ = b.AddChunk(4 * time.Second)
		for i := 0; i < 50; i++ {
			// Always advance strictly less than the level.
			max := b.Level() - time.Millisecond
			if max > 0 {
				b.Advance(time.Duration(rng.Int63n(int64(max))))
			}
			if b.HasSpaceFor(4 * time.Second) {
				_ = b.AddChunk(4 * time.Second)
			}
		}
		return b.Rebuffers() == 0 && b.StallTime() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
