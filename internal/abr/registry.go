package abr

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"bba/internal/units"
)

// The registry maps algorithm names — the experiment-group names used
// throughout the paper and the arena — to single-session factories. It
// replaces the hand-written name switch: commands, the facade, campaigns
// and the arena all enumerate Names() for help text and derive
// unknown-name errors from New, so a newly registered algorithm is
// immediately selectable everywhere without touching any of them.
var registry = struct {
	sync.RWMutex
	order     []string
	factories map[string]Factory
}{factories: map[string]Factory{}}

// Register adds a named algorithm factory. Names are the identity the whole
// stack keys on (experiment arms, arena entrants, flag values, report
// groups), so registering an empty name, a nil factory or a duplicate name
// is a programming error and panics. The factory's algorithms must report
// Name() equal to the registered name. Built-ins register in paper order at
// init; call Register from your own init (or before first use) to add an
// algorithm.
func Register(name string, f Factory) {
	if name == "" {
		panic("abr: Register with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("abr: Register %q with nil factory", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("abr: algorithm %q registered twice", name))
	}
	registry.order = append(registry.order, name)
	registry.factories[name] = f
}

// Names returns every registered algorithm name in registration order
// (built-ins in paper order, then third-party registrations). The slice is
// a copy; callers may keep it.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.factories[name]
	return f, ok
}

// ErrUnknownAlgorithm reports a name nothing is registered under.
var ErrUnknownAlgorithm = errors.New("abr: unknown algorithm")

// New builds a fresh single-session algorithm by registered name. The
// unknown-name error wraps ErrUnknownAlgorithm and enumerates the registry,
// so every command's error message stays in sync with what is actually
// selectable.
func New(name string) (Algorithm, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownAlgorithm, name, strings.Join(Names(), ", "))
	}
	return f(), nil
}

// CapacitySeeded is implemented by algorithms whose first decisions use a
// stored capacity estimate — production players seed their estimator with
// the user's throughput history. abtest.FactoryGroup probes it when
// building an arm from a factory, so history seeding works for any
// registered algorithm without per-algorithm wiring.
type CapacitySeeded interface {
	// SeedCapacity installs the stored throughput history used before the
	// first chunk's measurement arrives.
	SeedCapacity(units.BitRate)
}

// Built-ins, in paper order: the production Control and the degenerate
// bounds, the four buffer-based algorithms, the related-work controllers,
// then the arena rivals.
//
// Every pointer-typed built-in but Hybrid is recycled: its constructed
// value holds no non-nil slice, map, pointer, interface, func or chan, so
// copying that value over a used instance leaves nothing one session
// could share with the next (TestRecycledPristineHoldsNoReferences).
// Hybrid's constructor fills two pointers, so it always builds fresh;
// Rmin/Rmax Always are zero-size values and allocate nothing.
func init() {
	registerRecycled("Control", NewControl)
	Register("Rmin Always", func() Algorithm { return RminAlways{} })
	Register("Rmax Always", func() Algorithm { return RmaxAlways{} })
	registerRecycled("BBA-0", NewBBA0)
	registerRecycled("BBA-1", NewBBA1)
	registerRecycled("BBA-2", NewBBA2)
	registerRecycled("BBA-Others", NewBBAOthers)
	registerRecycled("PID", NewBufferTarget)
	registerRecycled("ELASTIC", NewElastic)
	registerRecycled("BOLA", NewBOLA)
	registerRecycled("SmoothThroughput", NewSmoothThroughput)
	Register("Hybrid", func() Algorithm { return NewHybrid() })
}

// recyclers maps each recycled built-in's name to its release function
// and its constructor. It is filled at init and only read afterwards.
var recyclers = map[string]recycler{}

type recycler struct {
	release func(Algorithm)
	fresh   func() Algorithm // never a released instance
}

// maxFree bounds each free list: a campaign worker holds at most its width
// of one arm's released instances, so 64 covers eight workers at the
// default batch width. Past it an instance is left to the collector.
const maxFree = 64

// registerRecycled registers name with a factory that hands out the last
// released instance, reset to build's value, or builds one. The free list
// is a locked stack rather than a sync.Pool, which under the race detector
// drops a quarter of what it is given.
func registerRecycled[T any, P interface {
	*T
	Algorithm
}](name string, build func() P) {
	pristine := *build()
	var mu sync.Mutex
	var free []P
	fresh := func() Algorithm { return build() }
	recyclers[name] = recycler{fresh: fresh, release: func(a Algorithm) {
		if x, ok := a.(P); ok {
			*x = pristine
			mu.Lock()
			if len(free) < maxFree {
				free = append(free, x)
			}
			mu.Unlock()
		}
	}}
	Register(name, func() Algorithm {
		mu.Lock()
		defer mu.Unlock()
		if n := len(free); n > 0 {
			x := free[n-1]
			free = free[:n-1]
			return x
		}
		return fresh()
	})
}

// Release hands an algorithm instance back to the registry, which resets
// it to the value its registered constructor builds and hands it out
// again from a later New or factory call. Call it only on an instance
// nothing will read again — not the session that played it, not its
// caller — and only once. An instance of a built-in that is not recycled,
// or of any other type under a built-in's name (a Custom, a third-party
// algorithm), is ignored.
func Release(a Algorithm) {
	if r, ok := recyclers[a.Name()]; ok {
		r.release(a)
	}
}
