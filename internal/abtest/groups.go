package abtest

import (
	"fmt"

	"bba/internal/abr"
)

// Group is one experiment arm: a name and a per-session algorithm factory.
// The factory receives the session's user so estimator-based algorithms can
// be seeded with the user's stored throughput history, as in production.
type Group struct {
	Name string
	New  func(u User) abr.Algorithm
}

// StandardGroups returns the arms used across the paper's three
// experiments: the production Control, the R_min Always lower bound, and
// the four buffer-based algorithms. They come out of the registry via the
// same FactoryGroup path every other arm uses; Control is CapacitySeeded,
// so it (and only it, among these six) is primed with the user's history.
func StandardGroups() []Group {
	gs, err := Groups("Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others")
	if err != nil {
		panic(err) // the built-in names are always registered
	}
	return gs
}

// FactoryGroup adapts a per-session factory into an experiment arm. It is
// the one code path between the algorithm registry and every campaign (the
// weekend experiment and the arena included): the factory builds a fresh state
// machine per session, and when the algorithm is CapacitySeeded the user's
// stored throughput history primes it — the production seeding previously
// hand-wired per group.
func FactoryGroup(name string, f abr.Factory) Group {
	return Group{Name: name, New: func(u User) abr.Algorithm {
		a := f()
		if cs, ok := a.(abr.CapacitySeeded); ok {
			cs.SeedCapacity(u.History)
		}
		return a
	}}
}

// GroupFor builds the arm for a registered algorithm name; unknown names
// return the registry's enumerating error.
func GroupFor(name string) (Group, error) {
	f, ok := abr.Lookup(name)
	if !ok {
		_, err := abr.New(name) // canonical unknown-name error
		return Group{}, err
	}
	return FactoryGroup(name, f), nil
}

// Groups builds arms for the named algorithms, in the given order. At least
// one name is required: an experiment with no arms is a configuration
// error, not an empty result.
func Groups(names ...string) ([]Group, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("abtest: no algorithm names given")
	}
	gs := make([]Group, len(names))
	for i, name := range names {
		g, err := GroupFor(name)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return gs, nil
}
