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
func init() {
	Register("Control", func() Algorithm { return NewControl() })
	Register("Rmin Always", func() Algorithm { return RminAlways{} })
	Register("Rmax Always", func() Algorithm { return RmaxAlways{} })
	Register("BBA-0", func() Algorithm { return NewBBA0() })
	Register("BBA-1", func() Algorithm { return NewBBA1() })
	Register("BBA-2", func() Algorithm { return NewBBA2() })
	Register("BBA-Others", func() Algorithm { return NewBBAOthers() })
	Register("PID", func() Algorithm { return NewBufferTarget() })
	Register("ELASTIC", func() Algorithm { return NewElastic() })
	Register("BOLA", func() Algorithm { return NewBOLA() })
	Register("SmoothThroughput", func() Algorithm { return NewSmoothThroughput() })
	Register("Hybrid", func() Algorithm { return NewHybrid() })
}
