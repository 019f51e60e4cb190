package abr

import (
	"testing"
	"testing/quick"
	"time"

	"bba/internal/media"
)

func TestDynamicReservoirCBRClampsToMinimum(t *testing.T) {
	// On a CBR encode every R_min chunk downloads in exactly V seconds at
	// capacity R_min: the deficit is zero and the reservoir clamps to the
	// 8-second minimum.
	s := cbrStream(t)
	if got := DynamicReservoir(s, 0, 0); got != MinReservoir {
		t.Errorf("CBR reservoir = %v, want MinReservoir %v", got, MinReservoir)
	}
}

func TestDynamicReservoirBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := vbrStream(t, seed)
		for k := 0; k < s.NumChunks(); k += 37 {
			r := DynamicReservoir(s, k, 0)
			if r < MinReservoir || r > MaxReservoir {
				t.Fatalf("seed %d chunk %d: reservoir %v outside [%v, %v]", seed, k, r, MinReservoir, MaxReservoir)
			}
		}
	}
}

func TestDynamicReservoirTracksSceneActivity(t *testing.T) {
	// A quiet (constant-bitrate) title and a busy one: every chunk at 1.4×
	// nominal models a sustained action set-piece. At C = R_min each busy
	// chunk adds a 0.4·V deficit, so the 480 s window accumulates ≈190 s
	// and the reservoir pins at the 140 s clamp.
	ladder := media.DefaultLadder()
	sizes := make([][]int64, len(ladder))
	for i, r := range ladder {
		sizes[i] = make([]int64, 240)
		for k := range sizes[i] {
			sizes[i][k] = r.BytesIn(media.DefaultChunkDuration) * 14 / 10
		}
	}
	busy, err := media.FromSizes("busy", ladder, media.DefaultChunkDuration, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rq := DynamicReservoir(cbrStream(t), 0, 0)
	rb := DynamicReservoir(NewStream(busy, 0), 0, 0)
	if rq != MinReservoir {
		t.Errorf("near-CBR reservoir = %v, want the minimum", rq)
	}
	if rb != MaxReservoir {
		t.Errorf("sustained-heavy title reservoir = %v, want the %v clamp", rb, MaxReservoir)
	}
}

func TestDynamicReservoirNearEndOfTitle(t *testing.T) {
	s := vbrStream(t, 5)
	// At the very last chunk there is nothing left to look ahead to.
	if got := DynamicReservoir(s, s.NumChunks()-1, 0); got < MinReservoir || got > MaxReservoir {
		t.Errorf("end-of-title reservoir = %v", got)
	}
	if got := DynamicReservoir(s, s.NumChunks()+100, 0); got != MinReservoir {
		t.Errorf("past-end reservoir = %v, want MinReservoir", got)
	}
}

func TestDynamicReservoirWindowDefault(t *testing.T) {
	s := vbrStream(t, 9)
	explicit := DynamicReservoir(s, 10, DefaultReservoirWindow)
	defaulted := DynamicReservoir(s, 10, 0)
	if explicit != defaulted {
		t.Errorf("window 0 should default to %v: got %v vs %v", DefaultReservoirWindow, defaulted, explicit)
	}
}

// TestReservoirPlanMatchesDynamicReservoir pins the hot-path cache: on
// randomized VBR titles (with and without R_min promotion), the plan
// returns the exact DynamicReservoir result for every chunk and a spread of
// windows — shorter than a chunk, the default, longer than the title.
// Bit-identical, not approximately equal — the plan accumulates the same
// terms in the same order.
func TestReservoirPlanMatchesDynamicReservoir(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := vbrStream(t, seed)
		if seed%2 == 1 {
			// Promote R_min so the plan must track the session ladder, not
			// the encode's full ladder.
			s = NewStream(s.Video(), s.Ladder()[1])
		}
		for _, w := range []time.Duration{0, time.Second, 30 * time.Second, DefaultReservoirWindow, 1200 * time.Second, 3000 * time.Second} {
			plan := NewTitlePlan(s, w)
			if !plan.matches(s, w) {
				t.Fatal("fresh plan does not match its own stream")
			}
			for k := 0; k < s.NumChunks(); k++ {
				want := DynamicReservoir(s, k, w)
				if got := plan.Reservoir(k); got != want {
					t.Fatalf("seed %d chunk %d window %v: plan %v, reference %v", seed, k, w, got, want)
				}
			}
		}
	}
}

// TestReservoirPlanRebindsOnStreamChange pins the guard: a BBA-1 instance
// asked about a different title, a different R_min promotion or with a
// changed window must bind that view's plan rather than reuse stale
// deficits and map endpoints, must bind the title's shared plan for the
// view, and must keep the bound plan while nothing changed.
func TestReservoirPlanRebindsOnStreamChange(t *testing.T) {
	a := vbrStream(t, 1)
	promoted := NewStream(a.Video(), a.Ladder()[2])
	other := vbrStream(t, 2)
	b := NewBBA1()
	check := func(what string, s Stream) *TitlePlan {
		t.Helper()
		m := b.Map(s, 10, 240*time.Second)
		if want := DynamicReservoir(s, 10, b.ReservoirWindow); m.Reservoir != want {
			t.Fatalf("%s: reservoir %v, want %v", what, m.Reservoir, want)
		}
		if want := testChunkMap(s); m.ChunkMin != want.ChunkMin || m.ChunkMax != want.ChunkMax {
			t.Fatalf("%s: map endpoints (%d, %d), want (%d, %d)", what, m.ChunkMin, m.ChunkMax, want.ChunkMin, want.ChunkMax)
		}
		if b.plan(s) != b.bound {
			t.Fatalf("%s: a second look at the same stream rebound the plan", what)
		}
		if b.bound != s.plan(b.ReservoirWindow) {
			t.Fatalf("%s: bound a plan that is not the title's shared one", what)
		}
		return b.bound
	}
	first := check("first stream", a)
	if check("promoted stream", promoted) == first {
		t.Fatal("promoted R_min kept the base plan")
	}
	check("second title", other)
	b.ReservoirWindow = 120 * time.Second
	check("shorter window", other)
	b.ReservoirWindow = 0 // the zero value means the default window
	if check("zero window", a) != first {
		t.Fatal("the zero window did not share the default window's plan")
	}
}

// Property: the reservoir is always within the paper's clamp and is
// monotone in the window length (a longer lookahead can only reveal a worse
// prefix).
func TestQuickReservoirWindowMonotone(t *testing.T) {
	s := vbrStream(t, 13)
	f := func(kRaw uint16, w1, w2 uint16) bool {
		k := int(kRaw) % s.NumChunks()
		a := time.Duration(w1%600+1) * time.Second
		b := time.Duration(w2%600+1) * time.Second
		if a > b {
			a, b = b, a
		}
		ra := DynamicReservoir(s, k, a)
		rb := DynamicReservoir(s, k, b)
		return ra <= rb && ra >= MinReservoir && rb <= MaxReservoir
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
