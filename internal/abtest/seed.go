package abtest

import (
	"math/rand"

	"bba/internal/stats"
)

// SessionRNG derives a deterministic, well-separated RNG for one session
// from the experiment seed and the session's calendar coordinates. The
// weekend campaign draws every user from it, so custom experiments (the
// figure generators, for instance) can draw the exact same population.
func SessionRNG(seed int64, day, window, i int) *rand.Rand {
	return rand.New(rand.NewSource(SessionSeed(seed, day, window, i)))
}

// SessionSeed is the seed of SessionRNG's stream, for callers that reseed
// a Scratch's generator instead of allocating a fresh one.
func SessionSeed(seed int64, day, window, i int) int64 {
	return int64(stats.Mix(uint64(seed), uint64(day), uint64(window), uint64(i)))
}

// SessionFaultSeed derives the per-session fault-schedule seed. It folds
// an extra constant into the SessionSeed mix so the fault weather stays
// decorrelated from the population draw even when the fault seed equals
// the experiment seed.
func SessionFaultSeed(seed int64, day, window, i int) int64 {
	return int64(stats.Mix(uint64(seed), uint64(day), uint64(window), uint64(i), 0xFA5E0))
}
