package abtest

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/trace"
	"bba/internal/units"
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

// TestSessionEnvResetInPlace is the draw slot's contract: one env rebuilt
// draw after draw — clean draws, faulted ones, and ones whose weather is
// HTTP-only; eager draws, and keyed ones whose composition the env packs
// from the scratch or composes again from the key — equals a fresh
// NewSessionEnv every time; an eager draw without a capacity fault streams
// the User's own trace, a keyed draw streams rows the env owns; no rebuild
// writes into a User's trace, the one thing that outlives the draw; a User
// with neither a trace nor a key is refused; and once warmed a rebuild
// allocates nothing.
func TestSessionEnvResetInPlace(t *testing.T) {
	catalog, err := media.NewCatalog(6, media.DefaultLadder(), 3)
	if err != nil {
		t.Fatal(err)
	}
	weathers := []*faults.ScheduleConfig{
		nil,
		{Blackouts: faults.EpisodeConfig{PerHour: 3, MinDuration: 10 * time.Second, MaxDuration: 40 * time.Second},
			Collapses: faults.EpisodeConfig{PerHour: 4, MinDuration: 30 * time.Second, MaxDuration: 2 * time.Minute}},
		{ServerErrors: faults.EpisodeConfig{PerHour: 4, MinDuration: 5 * time.Second, MaxDuration: 20 * time.Second}},
	}
	dflt := faults.DefaultScheduleConfig()
	weathers = append(weathers, &dflt)

	type draw struct {
		u     User
		fcfg  *faults.ScheduleConfig
		fseed int64
		segs  []trace.Segment // an eager User's trace when it was drawn
	}
	var sc Scratch
	var env SessionEnv
	var draws []draw
	var ownTrace, baseTrace int
	for i := 0; i < 120; i++ {
		keyed := i%3 == 2
		var u User
		if seed := int64(2000 + i); keyed {
			u = sc.DrawKeyed(PopulationConfig{}, i%12, i/12, seed)
		} else {
			u = sc.DrawUser(PopulationConfig{}, i%12, i/12, sc.Rand(seed))
		}
		d := draw{u: u, fcfg: weathers[i%len(weathers)], fseed: int64(9000 + i)}
		if !keyed {
			d.segs = u.Trace.Segments()
		}
		draws = append(draws, d)
		if err := env.Reset(&sc, u, u.Pick(catalog), d.fcfg, d.fseed); err != nil {
			t.Fatal(err)
		}
		ref, err := NewSessionEnv(u, u.Pick(catalog), d.fcfg, d.fseed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(env.Trace.Segments(), ref.Trace.Segments()) {
			t.Fatalf("draw %d: a rebuilt env's trace differs from a fresh env's", i)
		}
		if !reflect.DeepEqual(env.Stream, ref.Stream) || env.FaultSeed != ref.FaultSeed || env.User != ref.User {
			t.Fatalf("draw %d: a rebuilt env's stream, seed or user differs from a fresh env's", i)
		}
		if (env.Injector == nil) != (d.fcfg == nil) {
			t.Fatalf("draw %d: injector %v under weather %v", i, env.Injector, d.fcfg)
		}
		if env.Injector != nil {
			if !reflect.DeepEqual(env.Injector.Schedule().Faults(), ref.Injector.Schedule().Faults()) {
				t.Fatalf("draw %d: a rebuilt env's schedule differs from a fresh env's", i)
			}
			for at := time.Duration(0); at < time.Hour; at += 7 * time.Second {
				chunk := int(at / time.Second)
				l1, d1, f1 := env.Injector.ChunkFault(at, chunk, chunk%3)
				l2, d2, f2 := ref.Injector.ChunkFault(at, chunk, chunk%3)
				if l1 != l2 || d1 != d2 || f1 != f2 || env.Injector.RequestLatency(at) != ref.Injector.RequestLatency(at) {
					t.Fatalf("draw %d: a rebuilt injector decides differently at %v", i, at)
				}
			}
		}
		switch {
		case keyed && (u.Trace != nil || env.Trace != &env.own.trace):
			t.Fatalf("draw %d: a keyed draw's env streams a trace it does not own", i)
		case keyed:
		case env.Trace == u.Trace:
			baseTrace++
		default:
			ownTrace++
		}
		if keyed {
			// Reset took the scratch's held draw: rebuilt again, the env
			// composes the draw from its key, not from the builder the
			// weather rewrote.
			if err := env.Reset(&sc, u, u.Pick(catalog), d.fcfg, d.fseed); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(env.Trace.Segments(), ref.Trace.Segments()) {
				t.Fatalf("draw %d: an env rebuilt twice from one keyed draw differs from a fresh env", i)
			}
		}
	}
	if ownTrace == 0 || baseTrace <= len(draws)/len(weathers) {
		t.Fatalf("%d faulted traces, %d draws streaming the User's trace: the sweep missed a path", ownTrace, baseTrace)
	}
	for i, d := range draws {
		if d.u.Trace != nil && !reflect.DeepEqual(d.u.Trace.Segments(), d.segs) {
			t.Fatalf("draw %d: a later rebuild wrote into the User's trace", i)
		}
	}
	if err := env.Reset(&sc, User{}, catalog.Pick(0), nil, 0); err == nil {
		t.Error("a User with neither a trace nor a draw key built an env")
	}

	// Every draw below has been rebuilt into this env before, so its
	// storage is warm for all of them.
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		d := draws[next%len(draws)]
		next++
		if err := env.Reset(&sc, d.u, d.u.Pick(catalog), d.fcfg, d.fseed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("rebuilding a warmed env allocated %v times per draw, want 0", allocs)
	}
}

// FuzzKeyedDraw: a keyed draw is the eager draw of the same (config,
// window, day, seed), bit for bit — the User's fields, and the env's trace
// both while the scratch still holds the draw (packed from its builder)
// and after the scratch has moved on (composed again from the key).
func FuzzKeyedDraw(f *testing.F) {
	catalog, err := media.NewCatalog(6, media.DefaultLadder(), 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(13), uint8(2), uint16(600), uint8(40), uint8(100), uint8(90))
	f.Add(int64(1<<40), uint8(5), uint8(1), uint16(20000), uint8(3), uint8(5), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, window, day uint8, medianKbps uint16, fadesPerHour, outagePct, watchMin uint8) {
		cfg := PopulationConfig{
			MedianCapacity: units.BitRate(medianKbps) * units.Kbps,
			FadesPerHour:   float64(fadesPerHour % 64),
			OutageProb:     float64(outagePct%101) / 100,
			MeanWatch:      time.Duration(watchMin) * time.Minute,
		}
		w, d := int(window%14)-1, int(day%4) // windows -1 and 12 are outside the calendar
		want := DrawUser(cfg, w, d, rand.New(rand.NewSource(seed)))

		var sc Scratch
		u := sc.DrawKeyed(cfg, w, d, seed)
		if u.Trace != nil {
			t.Fatal("a keyed draw handed out a trace")
		}
		var env SessionEnv
		if err := env.Reset(&sc, u, u.Pick(catalog), nil, 0); err != nil {
			t.Fatal(err)
		}
		if got := env.Trace.Segments(); !reflect.DeepEqual(got, want.Trace.Segments()) {
			t.Fatal("the env's trace packed from the scratch differs from the eager draw's")
		}
		// The scratch moves on to another keyed draw, then to an eager one.
		for _, moveOn := range []func(){
			func() { sc.DrawKeyed(cfg, w, d, seed+1) },
			func() { sc.DrawUser(cfg, w+1, d, sc.Rand(seed+2)) },
		} {
			moveOn()
			if err := env.Reset(&sc, u, u.Pick(catalog), nil, 0); err != nil {
				t.Fatal(err)
			}
			if got := env.Trace.Segments(); !reflect.DeepEqual(got, want.Trace.Segments()) {
				t.Fatal("the env's trace composed again from the key differs from the eager draw's")
			}
		}
		u.key, want.Trace = drawKey{}, nil
		if u != want {
			t.Fatalf("keyed user %+v, eager draw %+v", u, want)
		}
	})
}

// TestKeyedDrawAllocatesNothing: on a warmed scratch and env, a keyed
// draw and the Reset that packs it allocate nothing, clean or faulted —
// the User holds its key by value, and the env rewrites rows it owns.
func TestKeyedDrawAllocatesNothing(t *testing.T) {
	catalog, err := media.NewCatalog(6, media.DefaultLadder(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fc := faults.DefaultScheduleConfig()
	for _, fcfg := range []*faults.ScheduleConfig{nil, &fc} {
		var sc Scratch
		var env SessionEnv
		const draws = 64
		i := 0
		draw := func() {
			u := sc.DrawKeyed(PopulationConfig{}, i%12, i/12%3, int64(i%draws))
			if err := env.Reset(&sc, u, u.Pick(catalog), fcfg, int64(i%draws)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range draws {
			draw()
		}
		if allocs := testing.AllocsPerRun(2*draws, draw); allocs != 0 {
			t.Errorf("faults=%v: a warmed keyed draw and its Reset allocated %v times, want 0", fcfg != nil, allocs)
		}
	}
}
