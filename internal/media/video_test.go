package media

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bba/internal/units"
)

func TestNewCBR(t *testing.T) {
	v, err := NewCBR("cbr", DefaultLadder(), DefaultChunkDuration, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumChunks() != 100 {
		t.Errorf("NumChunks = %d", v.NumChunks())
	}
	if v.Duration() != 400*time.Second {
		t.Errorf("Duration = %v", v.Duration())
	}
	// Every chunk equals the nominal size; 3 Mb/s chunks are 1.5 MB.
	ri := v.Ladder.IndexOf(3000 * units.Kbps)
	for k := 0; k < v.NumChunks(); k++ {
		if got := v.ChunkSize(ri, k); got != 1_500_000 {
			t.Fatalf("chunk %d = %d bytes, want 1500000", k, got)
		}
	}
	if v.MaxToAvgRatio(ri) != 1 {
		t.Errorf("CBR max/avg = %v, want 1", v.MaxToAvgRatio(ri))
	}
}

func TestNewCBRValidation(t *testing.T) {
	if _, err := NewCBR("x", Ladder{}, time.Second, 10); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewCBR("x", DefaultLadder(), 0, 10); err == nil {
		t.Error("zero chunk duration accepted")
	}
	if _, err := NewCBR("x", DefaultLadder(), time.Second, 0); err == nil {
		t.Error("zero chunks accepted")
	}
}

func TestChunkSizePanics(t *testing.T) {
	v, _ := NewCBR("x", DefaultLadder(), DefaultChunkDuration, 10)
	for _, c := range []struct{ rate, k int }{{-1, 0}, {99, 0}, {0, -1}, {0, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChunkSize(%d,%d) did not panic", c.rate, c.k)
				}
			}()
			v.ChunkSize(c.rate, c.k)
		}()
	}
}

func TestNewVBRFigure10Statistics(t *testing.T) {
	// Figure 10: 4-second chunks of a 3 Mb/s encode average 1.5 MB with a
	// max-to-average ratio around 2.
	rng := rand.New(rand.NewSource(10))
	v, err := NewVBR(VBRConfig{Title: "black-hawk-down", Ladder: DefaultLadder(), NumChunks: 1800}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ri := v.Ladder.IndexOf(3000 * units.Kbps)
	nominal := v.NominalChunkSize(ri)
	if nominal != 1_500_000 {
		t.Fatalf("nominal = %d", nominal)
	}
	avg := v.MeasuredAvgChunkSize(ri)
	if ratio := float64(avg) / float64(nominal); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("measured avg %d deviates from nominal %d by %.1f%%", avg, nominal, 100*(ratio-1))
	}
	e := v.MaxToAvgRatio(ri)
	if e < 1.5 || e > 2.05 {
		t.Errorf("max/avg ratio e = %v, want ≈2 (paper's measured value)", e)
	}
	// Some chunks should be well below average (static scenes / credits).
	var min int64 = 1 << 62
	for _, s := range v.ChunkSizes(ri) {
		if s < min {
			min = s
		}
	}
	if float64(min)/float64(nominal) > 0.6 {
		t.Errorf("smallest chunk only %.2f of nominal; VBR spread too narrow", float64(min)/float64(nominal))
	}
}

func TestNewVBRSharedScenes(t *testing.T) {
	// The activity factor is shared across rates: the size ratio between
	// two encodes of the same chunk must equal the nominal rate ratio.
	rng := rand.New(rand.NewSource(3))
	v, err := NewVBR(VBRConfig{Title: "x", Ladder: DefaultLadder(), NumChunks: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0, len(v.Ladder)-1
	want := float64(v.Ladder[hi]) / float64(v.Ladder[lo])
	for k := 0; k < v.NumChunks(); k++ {
		got := float64(v.ChunkSize(hi, k)) / float64(v.ChunkSize(lo, k))
		if got < want*0.99 || got > want*1.01 {
			t.Fatalf("chunk %d cross-rate ratio %.3f, want %.3f", k, got, want)
		}
	}
}

func TestNewVBRDeterministic(t *testing.T) {
	cfg := VBRConfig{Title: "x", Ladder: DefaultLadder(), NumChunks: 300}
	a, err := NewVBR(cfg, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVBR(cfg, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < a.NumChunks(); k++ {
		if a.ChunkSize(0, k) != b.ChunkSize(0, k) {
			t.Fatalf("chunk %d differs between same-seed builds", k)
		}
	}
}

func TestNewVBRDefaults(t *testing.T) {
	v, err := NewVBR(VBRConfig{Ladder: DefaultLadder()}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v.ChunkDuration != DefaultChunkDuration {
		t.Errorf("chunk duration = %v", v.ChunkDuration)
	}
	if v.NumChunks() != 1800 {
		t.Errorf("num chunks = %d", v.NumChunks())
	}
	if v.Duration() != 2*time.Hour {
		t.Errorf("duration = %v", v.Duration())
	}
}

func TestNewVBRBadLadder(t *testing.T) {
	if _, err := NewVBR(VBRConfig{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty ladder accepted")
	}
}

func TestCatalog(t *testing.T) {
	c, err := NewCatalog(5, DefaultLadder(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d", c.Len())
	}
	// Pick wraps and accepts negatives.
	if c.Pick(0) != c.Pick(5) {
		t.Error("Pick should wrap modulo the catalogue size")
	}
	if c.Pick(-3) == nil {
		t.Error("negative pick should still return a title")
	}
	// Titles have sane durations.
	for i := 0; i < c.Len(); i++ {
		d := c.Pick(i).Duration()
		if d < 20*time.Minute || d > 2*time.Hour {
			t.Errorf("title %d duration %v outside [20m, 2h]", i, d)
		}
	}
	// Determinism, between two builds: NewCatalog would hand back c itself.
	a, err := buildCatalog(5, DefaultLadder(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCatalog(5, DefaultLadder(), 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		va, vb := a.Pick(i), b.Pick(i)
		if va == vb {
			t.Fatal("buildCatalog shared a title between two builds")
		}
		if va.Title != vb.Title || va.NumChunks() != vb.NumChunks() {
			t.Fatalf("title %d: same-seed builds differ (%s, %d chunks vs %s, %d)", i, va.Title, va.NumChunks(), vb.Title, vb.NumChunks())
		}
		for ri := range va.Ladder {
			for k := 0; k < va.NumChunks(); k++ {
				if va.ChunkSize(ri, k) != vb.ChunkSize(ri, k) {
					t.Fatalf("title %d rate %d chunk %d: same-seed builds differ", i, ri, k)
				}
			}
		}
		if vc := c.Pick(i); vc.NumChunks() != va.NumChunks() || vc.ChunkSize(0, 0) != va.ChunkSize(0, 0) {
			t.Errorf("title %d: NewCatalog differs from a direct build", i)
		}
	}
	if _, err := NewCatalog(0, DefaultLadder(), 1); err == nil {
		t.Error("empty catalogue accepted")
	}
	if _, err := NewCatalog(3, Ladder{}, 1); err == nil {
		t.Error("catalogue on an empty ladder accepted")
	}
}

// TestCatalogMemo pins NewCatalog's process-wide cache: one *Catalog per
// (size, ladder rates, seed), keyed by the rates rather than the caller's
// slice, which the cache copies.
func TestCatalogMemo(t *testing.T) {
	ladder := DefaultLadder()
	c, err := NewCatalog(3, ladder, 5)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := NewCatalog(3, DefaultLadder(), 5); again != c {
		t.Error("the same size, ladder rates and seed built a second catalog")
	}
	want := c.Pick(0).Ladder[0]
	ladder[0] = 100 * units.Kbps // the caller's slice, not the cache's
	if got := c.Pick(0).Ladder[0]; got != want {
		t.Errorf("changing the caller's ladder moved the cached titles' R_min from %v to %v", want, got)
	}
	if again, _ := NewCatalog(3, DefaultLadder(), 5); again != c {
		t.Error("changing the caller's ladder slice changed the cache key")
	}
	for name, build := range map[string]func() (*Catalog, error){
		"size":   func() (*Catalog, error) { return NewCatalog(4, DefaultLadder(), 5) },
		"seed":   func() (*Catalog, error) { return NewCatalog(3, DefaultLadder(), 6) },
		"ladder": func() (*Catalog, error) { return NewCatalog(3, ladder, 5) },
	} {
		other, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if other == c {
			t.Errorf("a different %s returned the same catalog", name)
		}
	}
	if got := c.Pick(0).Ladder[0]; got != want {
		t.Errorf("a catalog on the changed ladder moved the cached titles' R_min to %v", got)
	}
}

// Property: every VBR chunk size stays within the configured envelope of the
// nominal size, at every rate.
func TestQuickVBREnvelope(t *testing.T) {
	f := func(seed int64) bool {
		v, err := NewVBR(VBRConfig{Ladder: DefaultLadder(), NumChunks: 120}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for ri := range v.Ladder {
			nominal := float64(v.NominalChunkSize(ri))
			for k := 0; k < v.NumChunks(); k++ {
				f := float64(v.ChunkSize(ri, k)) / nominal
				if f < 0.2 || f > 2.1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSizeIndex holds the title's derived tables to the plain accessor for
// all three constructors: a column is the chunk's sizes in ladder order with
// k clamped at both ends, a window sum is the clamped chunk-by-chunk loop
// (windows inside the title, straddling chunk 0, straddling the last chunk,
// hanging entirely off either end, longer than the title, empty), and
// ChunkSizes still hands out a private copy.
func TestSizeIndex(t *testing.T) {
	ladder := DefaultLadder()[:4]
	explicit := make([][]int64, len(ladder))
	rng := rand.New(rand.NewSource(5))
	for ri := range explicit {
		explicit[ri] = make([]int64, 37)
		for k := range explicit[ri] {
			explicit[ri][k] = 1 + rng.Int63n(1_000_000)
		}
	}
	cbr, err := NewCBR("cbr", ladder, DefaultChunkDuration, 23)
	if err != nil {
		t.Fatal(err)
	}
	vbr, err := NewVBR(VBRConfig{Ladder: ladder, NumChunks: 51}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	fromSizes, err := FromSizes("explicit", ladder, DefaultChunkDuration, explicit)
	if err != nil {
		t.Fatal(err)
	}
	for ri, row := range explicit {
		for k, want := range row {
			if got := fromSizes.ChunkSize(ri, k); got != want {
				t.Fatalf("FromSizes: ChunkSize(%d,%d) = %d, want the input's %d", ri, k, got, want)
			}
		}
	}
	explicit[1][3] = -1 // the matrix was copied
	if fromSizes.ChunkSize(1, 3) <= 0 {
		t.Error("FromSizes aliases its input matrix")
	}

	clampK := func(v *Video, k int) int {
		if k < 0 {
			return 0
		}
		if k >= v.NumChunks() {
			return v.NumChunks() - 1
		}
		return k
	}
	for _, v := range []*Video{cbr, vbr, fromSizes} {
		n := v.NumChunks()
		for k := -3; k < n+3; k++ {
			col := v.Column(k)
			if len(col) != len(ladder) || cap(col) != len(ladder) {
				t.Fatalf("%s: Column(%d) has len %d cap %d, want %d and no room to append into the next chunk", v.Title, k, len(col), cap(col), len(ladder))
			}
			for ri := range ladder {
				if want := v.ChunkSize(ri, clampK(v, k)); col[ri] != want {
					t.Fatalf("%s: Column(%d)[%d] = %d, ChunkSize = %d", v.Title, k, ri, col[ri], want)
				}
			}
		}
		for ri := range ladder {
			for _, k := range []int{-70, -5, -1, 0, 1, n / 2, n - 2, n - 1, n, n + 4} {
				for _, window := range []int{0, 1, 2, 5, 60, n, n + 9} {
					var want int64
					for j := 0; j < window; j++ {
						want += v.ChunkSize(ri, clampK(v, k+j))
					}
					if got := v.WindowSum(ri, k, window); got != want {
						t.Fatalf("%s: WindowSum(rate %d, chunk %d, window %d) = %d, clamped loop %d", v.Title, ri, k, window, got, want)
					}
				}
			}
			sizes := v.ChunkSizes(ri)
			var sum int64
			for k, s := range sizes {
				if s != v.ChunkSize(ri, k) {
					t.Fatalf("%s: ChunkSizes(%d)[%d] = %d, ChunkSize = %d", v.Title, ri, k, s, v.ChunkSize(ri, k))
				}
				sum += s
			}
			if got, want := v.MeasuredAvgChunkSize(ri), sum/int64(n); got != want {
				t.Errorf("%s: MeasuredAvgChunkSize(%d) = %d, want %d", v.Title, ri, got, want)
			}
			sizes[0] = -1
			if v.ChunkSize(ri, 0) <= 0 || v.Column(0)[ri] <= 0 {
				t.Errorf("%s: ChunkSizes(%d) is not a private copy", v.Title, ri)
			}
		}
	}
}

// TestFromSizesRejectsBeforeIndexing: ragged and non-positive matrices are
// refused by validation — an error, not an index panic from building the
// size index over them.
func TestFromSizesRejectsBeforeIndexing(t *testing.T) {
	ladder := DefaultLadder()[:3]
	for name, sizes := range map[string][][]int64{
		"short later row":  {{1, 2, 3}, {1, 2}, {1, 2, 3}},
		"long later row":   {{1, 2}, {1, 2, 3}, {1, 2}},
		"empty first row":  {{}, {1}, {1}},
		"zero size":        {{1, 2}, {1, 0}, {1, 2}},
		"negative size":    {{1, 2}, {1, 2}, {-4, 2}},
		"too few rows":     {{1, 2}, {1, 2}},
		"too many rows":    {{1}, {1}, {1}, {1}},
		"no rows at all":   {},
		"nil rows":         {nil, nil, nil},
		"empty later rows": {{1}, {}, {}},
	} {
		if v, err := FromSizes(name, ladder, DefaultChunkDuration, sizes); err == nil {
			t.Errorf("%s: accepted as a %d-chunk title", name, v.NumChunks())
		}
	}
	if _, err := FromSizes("ok", ladder, DefaultChunkDuration, [][]int64{{1}, {1}, {1}}); err != nil {
		t.Errorf("a one-chunk title was refused: %v", err)
	}
}

// TestLadderKbps: the title's kb/s table is its ladder's Kilobits, index
// for index, bit for bit, whichever constructor built the title.
func TestLadderKbps(t *testing.T) {
	ladder := Ladder{235 * units.Kbps, 1050 * units.Kbps, 4300*units.Kbps + 7}
	cbr, err := NewCBR("cbr", ladder, DefaultChunkDuration, 3)
	if err != nil {
		t.Fatal(err)
	}
	vbr, err := NewVBR(VBRConfig{Title: "vbr", Ladder: ladder, NumChunks: 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sized, err := FromSizes("sized", ladder, DefaultChunkDuration, [][]int64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Video{cbr, vbr, sized} {
		kbps := v.LadderKbps()
		if len(kbps) != len(ladder) {
			t.Fatalf("%s: %d kb/s entries for %d rungs", v.Title, len(kbps), len(ladder))
		}
		for i, r := range ladder {
			if kbps[i] != r.Kilobits() {
				t.Errorf("%s: rung %d is %v kb/s, want %v", v.Title, i, kbps[i], r.Kilobits())
			}
		}
	}
}
