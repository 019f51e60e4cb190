package abtest

import (
	"math/rand"

	"bba/internal/trace"
)

// Scratch is the reusable working memory of one draw pipeline: a single
// RNG reseeded per draw in place of a fresh 4.9 KB source each, and the
// trace builder every intermediate trace is composed in. A User's trace
// has its rows carved, exactly sized, from the builder's slab; the builder
// never writes a carved region again, so the trace stays valid when the
// scratch moves on to the next draw, and a retained trace pins at most
// one slab (64 KiB). A SessionEnv's fault state belongs to the env (see
// SessionEnv.Reset). The zero value is ready to use; a Scratch is not
// safe for concurrent use.
type Scratch struct {
	rng       *rand.Rand
	tb        trace.Builder
	overrides []trace.Override
}

// Rand reseeds the scratch's generator and returns it: the stream of
// rand.New(rand.NewSource(seed)) without the allocation. It ends whatever
// stream the scratch handed out before.
func (sc *Scratch) Rand(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}
