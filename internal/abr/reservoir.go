package abr

import (
	"time"

	"bba/internal/units"
)

// ReservoirBounds are the paper's practical clamp: "we bound the size of
// reservoir to be between 8 seconds to 140 seconds".
const (
	MinReservoir = 8 * time.Second
	MaxReservoir = 140 * time.Second
)

// DefaultReservoirWindow is X in the Section 5.1 calculation: "we set X as
// twice of the buffer size, i.e., 480 seconds".
const DefaultReservoirWindow = 480 * time.Second

// DynamicReservoir implements the Figure 12 calculation. Looking ahead over
// the next window of playback from chunk k, it assumes capacity exactly
// R_min and sums, chunk by chunk at rate R_min, the buffer the client will
// consume (ChunkSize/R_min seconds of download) minus the buffer it
// resupplies (V seconds per chunk). The reservoir must cover the worst
// prefix of that deficit — for a static scene the running sum goes negative
// (tiny chunks download faster than real time) and for an action scene it
// can exceed half the buffer, exactly as the paper describes. The result is
// clamped to [MinReservoir, MaxReservoir].
//
// This is the paper transcription: one full lookahead scan per call. The
// algorithms read the same values through a TitlePlan, which the tests hold
// to this function bit for bit.
func DynamicReservoir(s Stream, k int, window time.Duration) time.Duration {
	if window <= 0 {
		window = DefaultReservoirWindow
	}
	v := s.ChunkDuration()
	rmin := s.Ladder().Min()
	chunks := int(window / v)
	n := s.NumChunks()
	vSecs := v.Seconds()
	var running, worst float64 // seconds of buffer deficit
	for i := 0; i < chunks; i++ {
		idx := k + i
		if idx >= n {
			break
		}
		size := s.ChunkSize(0, idx)
		downloadSecs := float64(size*8) / float64(rmin)
		running += downloadSecs - vSecs
		if running > worst {
			worst = running
			if worst >= maxReservoirSecs {
				// The max is monotone over the scan and the clamp
				// saturates here, so the rest cannot change the result.
				break
			}
		}
	}
	return clampReservoir(worst)
}

// maxReservoirSecs is MaxReservoir in the seconds domain the deficit scans
// run in. Rounding is monotone, so worst ≥ this value guarantees
// clampReservoir saturates at MaxReservoir and a scan may stop early.
const maxReservoirSecs = float64(MaxReservoir) / float64(time.Second)

func clampReservoir(worstSecs float64) time.Duration {
	r := units.SecondsToDuration(worstSecs)
	if r < MinReservoir {
		return MinReservoir
	}
	if r > MaxReservoir {
		return MaxReservoir
	}
	return r
}
