package abr

import (
	"time"
)

// ChunkMap is the Section 5.2 generalization of the rate map to the
// buffer–chunk-size plane: it yields the maximum allowable size in bytes of
// the next chunk as a function of buffer occupancy, ramping linearly from
// the average chunk size at R_min (Chunk_min) to the average chunk size at
// R_max (Chunk_max) across the cushion.
type ChunkMap struct {
	ChunkMin, ChunkMax int64         // average chunk sizes at R_min and R_max, bytes
	Reservoir          time.Duration // r
	Cushion            time.Duration // cu
}

// MaxChunk evaluates the map: the largest chunk size the algorithm may
// request at occupancy b.
func (m ChunkMap) MaxChunk(b time.Duration) int64 {
	if b <= m.Reservoir || m.Cushion <= 0 {
		return m.ChunkMin
	}
	if b >= m.Reservoir+m.Cushion {
		return m.ChunkMax
	}
	frac := float64(b-m.Reservoir) / float64(m.Cushion)
	return m.ChunkMin + int64(frac*float64(m.ChunkMax-m.ChunkMin))
}

// Algorithm1Chunk applies the Algorithm 1 barrier rule on the chunk map:
// stay at prev as long as the size suggested by the map does not pass the
// size of the *next upcoming chunk* at the next-higher or next-lower
// available rate. On an up-crossing it returns the highest rate whose next
// chunk still fits under the map; on a down-crossing, the lowest rate whose
// next chunk exceeds it (rounding up, as in Algorithm 1's min{R_i : R_i >
// f(B)}), floored at R_min. Every comparison runs against chunk k's size
// column — one contiguous run of the title's index, k clamped to the last
// chunk — and this is the only implementation: standalone sessions, batch
// lanes and Figure 21 all decide here.
func Algorithm1Chunk(m ChunkMap, s Stream, prev, k int, b time.Duration) int {
	col := s.Column(k)
	top := len(col) - 1
	switch {
	case b <= m.Reservoir:
		return 0
	case b >= m.Reservoir+m.Cushion:
		return top
	}
	cap := m.MaxChunk(b)
	if prev < 0 {
		// First request: the highest rate whose chunk fits at or under
		// the map, or R_min if none does.
		best := 0
		for i, sz := range col {
			if sz <= cap {
				best = i
			}
		}
		return best
	}
	if prev > top {
		prev = top
	}
	switch {
	case prev != top && cap >= col[prev+1]:
		// Step up: the highest rate whose upcoming chunk is strictly
		// under the map, but at least one step.
		best := prev + 1
		for i := best + 1; i <= top; i++ {
			if col[i] < cap {
				best = i
			}
		}
		return best
	case prev != 0 && cap <= col[prev-1]:
		// Step down: the paper allows multi-step drops, so take the
		// lowest rate whose upcoming chunk exceeds the map (round up),
		// but at least one step.
		for i, sz := range col[:prev-1] {
			if sz > cap {
				return i
			}
		}
		return prev - 1
	default:
		return prev
	}
}
