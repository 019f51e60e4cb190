package abtest

import (
	"math/rand"
	"reflect"
	"testing"

	"bba/internal/faults"
	"bba/internal/media"
)

// TestRandReseedMatchesFreshSource pins the standard-library assumption the
// scratch rests on: reseeding one rand.Rand replays the stream of
// rand.New(rand.NewSource(k)) exactly, for every variate the draw and the
// fault generator read, whatever the generator was doing before.
func TestRandReseedMatchesFreshSource(t *testing.T) {
	variates := map[string]func(*rand.Rand) float64{
		"NormFloat64": (*rand.Rand).NormFloat64,
		"ExpFloat64":  (*rand.Rand).ExpFloat64,
		"Float64":     (*rand.Rand).Float64,
		"Intn(31)":    func(r *rand.Rand) float64 { return float64(r.Intn(31)) },
		"Intn(1<<30)": func(r *rand.Rand) float64 { return float64(r.Intn(1 << 30)) },
		"Int63n":      func(r *rand.Rand) float64 { return float64(r.Int63n(int64(1e10))) },
	}
	var sc Scratch
	for _, k := range []int64{0, 1, -1, 7, 1 << 40, -0x5DEECE66D, 0x7FFFFFFFFFFFFFFF} {
		for name, draw := range variates {
			fresh, reseeded := rand.New(rand.NewSource(k)), sc.Rand(k)
			for i := 0; i < 4096; i++ {
				if a, b := draw(fresh), draw(reseeded); a != b {
					t.Fatalf("seed %d, %s #%d: reseeded %v, fresh source %v", k, name, i, b, a)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sc.Rand(99).Float64() }); allocs != 0 {
		t.Errorf("reseeding a warmed scratch allocated %v times, want 0 (no new source)", allocs)
	}
}

// TestScratchReuseMatchesFreshDraw draws randomized users and their fault
// environments through one long-lived Scratch and through the package
// functions (a fresh scratch each): the users and traces must be equal,
// and — the retention contract — every earlier draw's traces must still be
// what they were once the scratch has moved on.
func TestScratchReuseMatchesFreshDraw(t *testing.T) {
	catalog, err := media.NewCatalog(6, media.DefaultLadder(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := faults.DefaultScheduleConfig()
	var sc Scratch
	var kept []SessionEnv
	var want []SessionEnv
	for i := 0; i < 60; i++ {
		seed, fseed := int64(1000+i), int64(5000+i)
		cfg := PopulationConfig{FadesPerHour: float64(i % 7)}
		u := sc.DrawUser(cfg, i%12, i/12, sc.Rand(seed))
		ref := DrawUser(cfg, i%12, i/12, rand.New(rand.NewSource(seed)))
		env, err := sc.NewSessionEnv(u, u.Pick(catalog), &fcfg, fseed)
		if err != nil {
			t.Fatal(err)
		}
		refEnv, err := NewSessionEnv(ref, ref.Pick(catalog), &fcfg, fseed)
		if err != nil {
			t.Fatal(err)
		}
		kept, want = append(kept, env), append(want, refEnv)
	}
	for i := range kept {
		got, ref := kept[i], want[i]
		if !reflect.DeepEqual(got.User.Trace.Segments(), ref.User.Trace.Segments()) {
			t.Errorf("draw %d: user trace differs from a fresh draw's", i)
		}
		if !reflect.DeepEqual(got.Trace.Segments(), ref.Trace.Segments()) {
			t.Errorf("draw %d: faulted trace differs from a fresh env's", i)
		}
		if !reflect.DeepEqual(got.Injector.Schedule().Faults(), ref.Injector.Schedule().Faults()) {
			t.Errorf("draw %d: fault schedule differs from a fresh env's", i)
		}
		got.User.Trace, ref.User.Trace = nil, nil
		if got.User != ref.User {
			t.Errorf("draw %d: user %+v, fresh draw %+v", i, got.User, ref.User)
		}
	}
}
