package abr

// The paper-transcription oracle. There is one production decision path —
// Algorithm1Chunk over the title's size column, on a chunk map whose
// reservoir and endpoints come from a TitlePlan — so it cannot be tested by
// comparing it with a second copy of itself. These tests compare it with
// the paper instead: Algorithm 1 and the §5.2 chunk map written the way the
// paper prints them, one ChunkSize lookup per rate, no column, no plan, and
// the Figure 12 reservoir rescanned in full for every decision.

import (
	"math/rand"
	"testing"
	"time"

	"bba/internal/media"
)

// paperChunkDecision is Algorithm 1 read on the buffer–chunk-size plane
// (§5.2): R_i becomes Chunk_i[k], the size of the upcoming chunk at rate i,
// and f(B) the chunk map. Two readings the paper leaves to the implementer
// are the repo's documented ones: a crossing moves at least one rung, and
// the first request (no previous rate) takes the highest rate that fits.
func paperChunkDecision(m ChunkMap, s Stream, prev, k int, buf time.Duration) int {
	rMax := len(s.Ladder()) - 1
	if k > s.NumChunks()-1 {
		k = s.NumChunks() - 1 // past the end the last chunk stands in
	}
	chunk := func(i int) int64 { return s.ChunkSize(i, k) }
	if buf <= m.Reservoir {
		return 0
	}
	if buf >= m.Reservoir+m.Cushion {
		return rMax
	}
	// f(B): linear from Chunk_min at the reservoir to Chunk_max at the
	// top of the cushion.
	f := m.ChunkMin + int64(float64(buf-m.Reservoir)/float64(m.Cushion)*float64(m.ChunkMax-m.ChunkMin))
	if prev < 0 {
		next := 0
		for i := rMax; i > 0 && next == 0; i-- {
			if chunk(i) <= f {
				next = i
			}
		}
		return next
	}
	if prev > rMax {
		prev = rMax
	}
	ratePlus, rateMinus := prev, prev
	if prev != rMax {
		ratePlus = prev + 1 // min{R_i : R_i > Rate_prev}
	}
	if prev != 0 {
		rateMinus = prev - 1 // max{R_i : R_i < Rate_prev}
	}
	switch {
	case ratePlus != prev && f >= chunk(ratePlus):
		next := ratePlus // max{R_i : Chunk_i < f(B)}, at least Rate+
		for i := rMax; i > ratePlus && next == ratePlus; i-- {
			if chunk(i) < f {
				next = i
			}
		}
		return next
	case rateMinus != prev && f <= chunk(rateMinus):
		next := rateMinus // min{R_i : Chunk_i > f(B)}, at most Rate−
		for i := rateMinus - 1; i >= 0; i-- {
			if chunk(i) > f {
				next = i
			}
		}
		return next
	}
	return prev
}

// paperBBA1Map is the §5 chunk map before any outage protection accrues:
// the Figure 12 reservoir, the cushion up to 90 % of the buffer, nominal
// chunk sizes at R_min and R_max as endpoints.
func paperBBA1Map(s Stream, k int, bufferMax time.Duration) ChunkMap {
	r := DynamicReservoir(s, k, DefaultReservoirWindow)
	cu := time.Duration(0.9*float64(bufferMax)) - r
	if cu < time.Second {
		cu = time.Second
	}
	return ChunkMap{
		ChunkMin:  s.NominalChunkSize(0),
		ChunkMax:  s.NominalChunkSize(len(s.Ladder()) - 1),
		Reservoir: r,
		Cushion:   cu,
	}
}

// productionBBA1 returns a BBA-1 whose every Next is a first-of-session
// decision with a chosen prev: no outage protection accrues, so one
// instance — and one lazily filled plan — serves any number of probes.
func productionBBA1() *BBA1 {
	b := NewBBA1()
	b.ProtectionPerChunk = 0
	return b
}

func decideFrom(b *BBA1, prev int, s Stream, k int, buf, bufferMax time.Duration) int {
	b.prev = prev
	return b.Next(State{Buffer: buf, BufferMax: bufferMax, PrevIndex: prev, NextChunk: k}, s)
}

// oracleTitle draws a CBR, VBR or explicit-size title on the lowest rungs
// rates of the default ladder. Explicit sizes swing 0–2× nominal per chunk
// and rate independently, so columns need not even be ascending.
func oracleTitle(t testing.TB, rng *rand.Rand, kind, rungs, chunks int) *media.Video {
	t.Helper()
	ladder := media.DefaultLadder()[:rungs]
	var v *media.Video
	var err error
	switch kind {
	case 0:
		v, err = media.NewCBR("cbr", ladder, media.DefaultChunkDuration, chunks)
	case 1:
		v, err = media.NewVBR(media.VBRConfig{Ladder: ladder, NumChunks: chunks}, rng)
	default:
		sizes := make([][]int64, rungs)
		for i := range sizes {
			nominal := ladder[i].BytesIn(media.DefaultChunkDuration)
			sizes[i] = make([]int64, chunks)
			for k := range sizes[i] {
				sizes[i][k] = 1 + rng.Int63n(2*nominal)
			}
		}
		v, err = media.FromSizes("explicit", ladder, media.DefaultChunkDuration, sizes)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestChunkDecisionMatchesPaperTranscription holds the production decision
// to the paper on random CBR, VBR and explicit-size titles, ladders of 1–10
// rungs, every R_min promotion, prev from "none" to past the top, buffers
// on and either side of the reservoir and cushion boundaries, and k from 0
// to past the end of the title. A second sweep pins the map value exactly
// onto each chunk size, where ≥ and > part ways.
func TestChunkDecisionMatchesPaperTranscription(t *testing.T) {
	const bufferMax = 240 * time.Second
	rng := rand.New(rand.NewSource(18))
	decisions := 0
	for title := 0; title < 30; title++ {
		rungs := 1 + title%10
		v := oracleTitle(t, rng, title%3, rungs, 30+rng.Intn(370))
		for _, rmin := range v.Ladder {
			s := NewStream(v, rmin)
			b := productionBBA1()
			n := s.NumChunks()
			for _, k := range []int{0, 1, rng.Intn(n), rng.Intn(n), n - 2, n - 1, n, n + 7} {
				m := paperBBA1Map(s, k, bufferMax)
				if got := b.Map(s, k, bufferMax); got != m {
					t.Fatalf("title %d R_min %v chunk %d: BBA-1 maps %+v, the paper %+v", title, rmin, k, got, m)
				}
				edge := m.Reservoir + m.Cushion
				bufs := []time.Duration{0, m.Reservoir - 1, m.Reservoir, m.Reservoir + 1, edge - 1, edge, edge + 1, bufferMax}
				for i := 0; i < 12; i++ {
					bufs = append(bufs, m.Reservoir+time.Duration(rng.Int63n(int64(m.Cushion))))
				}
				for prev := -1; prev <= len(s.Ladder()); prev++ {
					for _, buf := range bufs {
						want := paperChunkDecision(m, s, prev, k, buf)
						if got := decideFrom(b, prev, s, k, buf, bufferMax); got != want {
							t.Fatalf("title %d (%d rungs) R_min %v chunk %d prev %d buffer %v: BBA-1 chose %d, the paper %d",
								title, rungs, rmin, k, prev, buf, got, want)
						}
						decisions++
					}
					// The map pinned flat at each rate's size for this chunk.
					for i := range s.Ladder() {
						flat := m
						flat.ChunkMin = s.Column(k)[i]
						flat.ChunkMax = flat.ChunkMin
						buf := m.Reservoir + m.Cushion/2
						want := paperChunkDecision(flat, s, prev, k, buf)
						if got := Algorithm1Chunk(flat, s, prev, k, buf); got != want {
							t.Fatalf("title %d R_min %v chunk %d prev %d map pinned at rate %d's size: Algorithm1Chunk chose %d, the paper %d",
								title, rmin, k, prev, i, got, want)
						}
					}
				}
			}
		}
	}
	if decisions < 100_000 {
		t.Errorf("only %d decisions compared; the sweep lost its breadth", decisions)
	}
}

// FuzzChunkDecision is the same comparison over fuzzer-chosen titles: raw's
// first byte picks the ladder's length, every later byte scales one (chunk,
// rate) size to 0–2× that rate's nominal.
func FuzzChunkDecision(f *testing.F) {
	f.Add([]byte{9, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128}, uint32(120_000), int8(3), int16(0), uint8(0))
	f.Add([]byte{2, 1, 255, 255, 1, 128, 128}, uint32(45_000), int8(-1), int16(2), uint8(1))
	f.Add([]byte{0, 7}, uint32(0), int8(0), int16(-3), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, bufMs uint32, prev int8, k int16, promote uint8) {
		if len(raw) < 2 {
			return
		}
		rungs := 1 + int(raw[0])%10
		chunks := (len(raw) - 1) / rungs
		if chunks == 0 {
			return
		}
		ladder := media.DefaultLadder()[:rungs]
		sizes := make([][]int64, rungs)
		for i := range sizes {
			nominal := ladder[i].BytesIn(media.DefaultChunkDuration)
			sizes[i] = make([]int64, chunks)
			for c := range sizes[i] {
				sizes[i][c] = 1 + nominal*int64(raw[1+c*rungs+i])/128
			}
		}
		v, err := media.FromSizes("fuzz", ladder, media.DefaultChunkDuration, sizes)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(v, ladder[int(promote)%rungs])
		const bufferMax = 240 * time.Second
		buf := time.Duration(bufMs%300_000) * time.Millisecond
		chunk := int(k)
		if chunk < 0 {
			chunk = -chunk % (chunks + 3) // the player never asks below 0; past the end it may
		}
		want := paperChunkDecision(paperBBA1Map(s, chunk, bufferMax), s, int(prev), chunk, buf)
		if got := decideFrom(productionBBA1(), int(prev), s, chunk, buf, bufferMax); got != want {
			t.Fatalf("%d rungs × %d chunks, R_min %v chunk %d prev %d buffer %v: BBA-1 chose %d, the paper %d",
				rungs, chunks, s.Ladder().Min(), chunk, prev, buf, got, want)
		}
	})
}
