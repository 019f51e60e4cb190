package faults

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bba/internal/trace"
	"bba/internal/units"
)

func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		fs   []Fault
		ok   bool
	}{
		{"empty", nil, true},
		{"blackout", []Fault{{Kind: Blackout, Start: 10 * time.Second, Duration: 5 * time.Second}}, true},
		{"zero duration", []Fault{{Kind: Blackout, Start: 0, Duration: 0}}, false},
		{"negative start", []Fault{{Kind: Blackout, Start: -time.Second, Duration: time.Second}}, false},
		{"unknown kind", []Fault{{Kind: 0, Start: 0, Duration: time.Second}}, false},
		{"collapse without factor", []Fault{{Kind: Collapse, Start: 0, Duration: time.Second}}, false},
		{"collapse factor 1", []Fault{{Kind: Collapse, Start: 0, Duration: time.Second, Factor: 1}}, false},
		{"collapse ok", []Fault{{Kind: Collapse, Start: 0, Duration: time.Second, Factor: 0.2}}, true},
		{"spike without latency", []Fault{{Kind: LatencySpike, Start: 0, Duration: time.Second}}, false},
		{"same-kind overlap", []Fault{
			{Kind: Blackout, Start: 0, Duration: 10 * time.Second},
			{Kind: Blackout, Start: 5 * time.Second, Duration: 10 * time.Second},
		}, false},
		{"cross-kind overlap", []Fault{
			{Kind: Blackout, Start: 0, Duration: 10 * time.Second},
			{Kind: ServerError, Start: 5 * time.Second, Duration: 10 * time.Second},
		}, true},
	}
	for _, tc := range cases {
		_, err := NewSchedule(tc.fs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewSchedule err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestScheduleActive(t *testing.T) {
	s := MustSchedule([]Fault{
		{Kind: Blackout, Start: 10 * time.Second, Duration: 5 * time.Second},
		{Kind: ServerError, Start: 20 * time.Second, Duration: 10 * time.Second},
		{Kind: StallBody, Start: 25 * time.Second, Duration: 10 * time.Second},
	})
	if _, ok := s.Active(Blackout, 9*time.Second); ok {
		t.Error("blackout active before start")
	}
	if _, ok := s.Active(Blackout, 10*time.Second); !ok {
		t.Error("blackout inactive at start")
	}
	if _, ok := s.Active(Blackout, 15*time.Second); ok {
		t.Error("blackout active at end (episodes are half-open)")
	}
	// ActiveHTTP prefers the earliest-starting episode when two overlap.
	f, ok := s.ActiveHTTP(26 * time.Second)
	if !ok || f.Kind != ServerError {
		t.Errorf("ActiveHTTP(26s) = %v, %v; want the server_error episode", f.Kind, ok)
	}
	f, ok = s.ActiveHTTP(31 * time.Second)
	if !ok || f.Kind != StallBody {
		t.Errorf("ActiveHTTP(31s) = %v, %v; want the stall_body episode", f.Kind, ok)
	}
	if _, ok := s.ActiveHTTP(12 * time.Second); ok {
		t.Error("ActiveHTTP matched a capacity fault")
	}
}

func TestTotalOutage(t *testing.T) {
	s := MustSchedule([]Fault{
		{Kind: Blackout, Start: 10 * time.Second, Duration: 20 * time.Second},
		{Kind: Blackout, Start: 100 * time.Second, Duration: 30 * time.Second},
		{Kind: Collapse, Start: 40 * time.Second, Duration: 20 * time.Second, Factor: 0.1},
	})
	if got := s.TotalOutage(time.Hour); got != 50*time.Second {
		t.Errorf("TotalOutage(1h) = %v, want 50s", got)
	}
	// Truncated at the horizon.
	if got := s.TotalOutage(110 * time.Second); got != 30*time.Second {
		t.Errorf("TotalOutage(110s) = %v, want 30s", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultScheduleConfig()
	a := GenerateSeeded(cfg, 42)
	b := GenerateSeeded(cfg, 42)
	if !reflect.DeepEqual(a.Faults(), b.Faults()) {
		t.Fatal("same seed produced different schedules")
	}
	c := GenerateSeeded(cfg, 43)
	if reflect.DeepEqual(a.Faults(), c.Faults()) {
		t.Fatal("different seeds produced identical schedules")
	}
	if a.Empty() {
		t.Fatal("default config over an hour produced no faults")
	}
	// Episodes respect the config's duration bounds and kind parameters.
	for _, f := range a.Faults() {
		if f.Start >= cfg.withDefaults().Horizon {
			t.Errorf("episode starts at %v, past the horizon", f.Start)
		}
		switch f.Kind {
		case Collapse:
			if f.Factor < 0.05 || f.Factor > 0.25 {
				t.Errorf("collapse factor %v outside configured [0.05, 0.25]", f.Factor)
			}
		case LatencySpike:
			if f.Latency < 500*time.Millisecond || f.Latency > 2*time.Second {
				t.Errorf("spike latency %v outside configured [500ms, 2s]", f.Latency)
			}
		}
	}
}

func TestGenerateRespectsDisabledKinds(t *testing.T) {
	cfg := ScheduleConfig{
		Horizon:   time.Hour,
		Blackouts: EpisodeConfig{PerHour: 10, MinDuration: 10 * time.Second},
	}
	s := GenerateSeeded(cfg, 7)
	for _, f := range s.Faults() {
		if f.Kind != Blackout {
			t.Fatalf("disabled kind %v generated", f.Kind)
		}
	}
	if s.Empty() {
		t.Fatal("10/hour blackouts generated nothing")
	}
}

func TestApplyToTrace(t *testing.T) {
	base := trace.MustNew([]trace.Segment{
		{Duration: 60 * time.Second, Rate: 4 * units.Mbps},
		{Duration: 60 * time.Second, Rate: 8 * units.Mbps},
	})
	s := MustSchedule([]Fault{
		{Kind: Blackout, Start: 10 * time.Second, Duration: 10 * time.Second},
		// Collapse crossing the 60 s base boundary: must stay proportional
		// to the underlying rate on each side.
		{Kind: Collapse, Start: 50 * time.Second, Duration: 20 * time.Second, Factor: 0.5},
		// HTTP faults must not perturb the trace.
		{Kind: ServerError, Start: 30 * time.Second, Duration: 10 * time.Second},
	})
	got, err := s.ApplyToTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		at   time.Duration
		want units.BitRate
	}{
		{5 * time.Second, 4 * units.Mbps},
		{15 * time.Second, 0},
		{25 * time.Second, 4 * units.Mbps},
		{35 * time.Second, 4 * units.Mbps}, // server_error episode: trace untouched
		{55 * time.Second, 2 * units.Mbps}, // collapse over the 4 Mb/s side
		{65 * time.Second, 4 * units.Mbps}, // collapse over the 8 Mb/s side
		{75 * time.Second, 8 * units.Mbps},
	}
	for _, c := range checks {
		if r := got.RateAt(c.at); r != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, r, c.want)
		}
	}
}

func TestApplyToTraceBlackoutWinsOverCollapse(t *testing.T) {
	base := trace.Constant(4*units.Mbps, 120*time.Second)
	s := MustSchedule([]Fault{
		{Kind: Collapse, Start: 10 * time.Second, Duration: 40 * time.Second, Factor: 0.5},
		{Kind: Blackout, Start: 20 * time.Second, Duration: 10 * time.Second},
	})
	got, err := s.ApplyToTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at   time.Duration
		want units.BitRate
	}{
		{15 * time.Second, 2 * units.Mbps},
		{25 * time.Second, 0},
		{35 * time.Second, 2 * units.Mbps},
		{55 * time.Second, 4 * units.Mbps},
	} {
		if r := got.RateAt(c.at); r != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, r, c.want)
		}
	}
	if s.capacityAt(25*time.Second) != 0 || s.capacityAt(15*time.Second) != 0.5 || s.capacityAt(55*time.Second) != 1 {
		t.Error("capacityAt disagrees with the applied trace")
	}
}

func TestApplyToTraceExtendsBase(t *testing.T) {
	base := trace.Constant(4*units.Mbps, 30*time.Second)
	s := MustSchedule([]Fault{
		{Kind: Blackout, Start: 50 * time.Second, Duration: 10 * time.Second},
	})
	got, err := s.ApplyToTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() < 60*time.Second {
		t.Fatalf("trace not extended: total %v", got.Total())
	}
	if r := got.RateAt(55 * time.Second); r != 0 {
		t.Errorf("RateAt(55s) = %v, want 0 (blackout past base end)", r)
	}
	if r := got.RateAt(65 * time.Second); r != 4*units.Mbps {
		t.Errorf("RateAt(65s) = %v, want the persisted base rate", r)
	}
}

func TestApplyToTraceEmptySchedule(t *testing.T) {
	base := trace.Constant(4*units.Mbps, 30*time.Second)
	var s *Schedule
	got, err := s.ApplyToTrace(base)
	if err != nil || got != base {
		t.Fatalf("nil schedule: got %v, %v; want base unchanged", got, err)
	}
	onlyHTTP := MustSchedule([]Fault{{Kind: ServerError, Start: 0, Duration: time.Second}})
	got, err = onlyHTTP.ApplyToTrace(base)
	if err != nil || got != base {
		t.Fatalf("HTTP-only schedule: got %v, %v; want base unchanged", got, err)
	}
}

// TestApplyToTraceMatchesCapacityAt checks the builder-composed trace
// against the schedule's own pointwise definition on randomized heavy
// weather (overlapping blackouts and collapses, spans past the base's end):
// every segment of the result carries base rate × capacityAt — the minimum
// factor where episodes overlap — across its whole length, and the result
// ends one second past the last capacity fault or at the base's
// end, whichever is later. One reused Builder serves every draw.
func TestApplyToTraceMatchesCapacityAt(t *testing.T) {
	cfg := ScheduleConfig{
		Horizon:   20 * time.Minute,
		Blackouts: EpisodeConfig{PerHour: 20, MinDuration: 5 * time.Second, MaxDuration: 90 * time.Second},
		Collapses: EpisodeConfig{PerHour: 30, MinDuration: 10 * time.Second, MaxDuration: 3 * time.Minute},
	}
	var b trace.Builder
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := trace.Markov(trace.MarkovConfig{
			Base: 3 * units.Mbps, Sigma: 0.7, MeanDwell: 8 * time.Second,
			Duration: time.Duration(1+rng.Intn(25)) * time.Minute,
		}, rng)
		s := GenerateSeeded(cfg, seed)
		got, err := s.ApplyInto(new(trace.Trace), &b, base)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var lastEnd time.Duration
		for _, f := range s.Faults() {
			lastEnd = max(lastEnd, f.End())
		}
		wantTotal := base.Total()
		if lastEnd >= wantTotal {
			wantTotal = lastEnd + time.Second
		}
		if got.Total() != wantTotal {
			t.Fatalf("seed %d: total %v, want %v", seed, got.Total(), wantTotal)
		}
		at := time.Duration(0)
		for i, seg := range got.Segments() {
			mid := at + seg.Duration/2
			for _, probe := range []time.Duration{at, mid, at + seg.Duration - 1} {
				want := base.RateAt(probe)
				if c := s.capacityAt(probe); c < 1 {
					want = want.Scale(c)
				}
				if seg.Rate != want {
					t.Fatalf("seed %d: segment %d rate %v at %v, want %v", seed, i, seg.Rate, probe, want)
				}
			}
			at += seg.Duration
		}
		if fresh, err := s.ApplyToTrace(base); err != nil || !reflect.DeepEqual(fresh.Segments(), got.Segments()) {
			t.Fatalf("seed %d: a reused Builder and a fresh one disagree (%v)", seed, err)
		}
	}
}

func TestBackoff(t *testing.T) {
	base, cap := 200*time.Millisecond, 5*time.Second
	// Deterministic: same coordinates, same delay.
	if a, b := Backoff(base, cap, 1, 3, 2), Backoff(base, cap, 1, 3, 2); a != b {
		t.Fatalf("same coordinates gave %v and %v", a, b)
	}
	// Jitter bounded by ±25% of the capped exponential value.
	for attempt := 1; attempt <= 10; attempt++ {
		d := Backoff(base, cap, 9, 0, attempt)
		ideal := base << (attempt - 1)
		if ideal > cap {
			ideal = cap
		}
		lo := time.Duration(float64(ideal) * 0.75)
		hi := time.Duration(float64(ideal) * 1.25)
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	if Backoff(base, cap, 1, 0, 0) != 0 {
		t.Error("attempt 0 should cost nothing")
	}
}

func TestSessionInjectorDeterministicAndScoped(t *testing.T) {
	s := MustSchedule([]Fault{
		{Kind: ServerError, Start: 10 * time.Second, Duration: 20 * time.Second},
		{Kind: LatencySpike, Start: 40 * time.Second, Duration: 10 * time.Second, Latency: time.Second},
	})
	a := NewSessionInjector(s, 11)
	b := NewSessionInjector(s, 11)
	sawFailure := false
	for chunk := 0; chunk < 16; chunk++ {
		for attempt := 0; attempt < 4; attempt++ {
			l1, d1, f1 := a.ChunkFault(15*time.Second, chunk, attempt)
			l2, d2, f2 := b.ChunkFault(15*time.Second, chunk, attempt)
			if l1 != l2 || d1 != d2 || f1 != f2 {
				t.Fatal("same injector seed disagreed with itself")
			}
			if f1 {
				sawFailure = true
				if l1 != "server_error" || d1 != a.ErrorDelay {
					t.Fatalf("failure label %q delay %v; want server_error/%v", l1, d1, a.ErrorDelay)
				}
			}
		}
	}
	if !sawFailure {
		t.Fatal("no failure in 64 attempts during a server_error episode (p=0.9)")
	}
	// Outside every episode the injector is silent.
	if _, _, failed := a.ChunkFault(5*time.Second, 0, 0); failed {
		t.Error("failure outside any episode")
	}
	if d := a.RequestLatency(45 * time.Second); d != time.Second {
		t.Errorf("RequestLatency in spike = %v, want 1s", d)
	}
	if d := a.RequestLatency(5 * time.Second); d != 0 {
		t.Errorf("RequestLatency outside spike = %v, want 0", d)
	}
	// A nil injector is valid and inert, so the player's hot path can hold
	// a typed nil.
	var nilInj *SessionInjector
	if _, _, failed := nilInj.ChunkFault(15*time.Second, 0, 0); failed {
		t.Error("nil injector injected a fault")
	}
	if nilInj.RequestLatency(45*time.Second) != 0 {
		t.Error("nil injector charged latency")
	}
}
