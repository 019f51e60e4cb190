package abtest

import (
	"math/rand"

	"bba/internal/trace"
)

// Scratch is the reusable working memory of one draw pipeline: a single
// RNG reseeded per draw in place of a fresh 4.9 KB source each, and the
// trace builder every intermediate trace is composed in. Nothing a draw
// hands out points into it: DrawUser's trace has rows of its own, and
// DrawKeyed's User holds its key, not a trace, so either stays valid when
// the scratch moves on to the next draw. The builder holds a keyed draw's
// composition until SessionEnv.Reset packs it into rows the env owns (see
// SessionEnv). The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	rng       *rand.Rand
	tb        trace.Builder
	overrides []trace.Override
	// held is the key of the keyed draw whose composition tb holds, the
	// zero key when it holds none; whatever next writes tb clears it.
	held drawKey
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
