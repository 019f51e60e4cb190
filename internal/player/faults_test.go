package player

import (
	"reflect"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

func faultedConfig(t *testing.T, sched *faults.Schedule, seed int64) Config {
	t.Helper()
	return Config{
		Algorithm: abr.NewBBA0(),
		Stream:    cbrStream(t, 150),
		Trace:     trace.Constant(8*units.Mbps, time.Hour),
		Injector:  faults.NewSessionInjector(sched, seed),
		Retry:     RetryPolicy{Seed: seed},
	}
}

func TestInjectorRetriesAndRecovers(t *testing.T) {
	sched := faults.MustSchedule([]faults.Fault{
		{Kind: faults.ServerError, Start: 30 * time.Second, Duration: 20 * time.Second},
	})
	res, err := Run(faultedConfig(t, sched, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 || res.Retries == 0 {
		t.Fatalf("session saw %d faults, %d retries; want both > 0 during a 20s 5xx burst", res.Faults, res.Retries)
	}
	if res.Incomplete {
		t.Fatal("session aborted instead of riding out the episode")
	}
	if res.Played == 0 {
		t.Fatal("nothing played")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	sched := faults.MustSchedule([]faults.Fault{
		{Kind: faults.ServerError, Start: 20 * time.Second, Duration: 30 * time.Second},
		{Kind: faults.StallBody, Start: 90 * time.Second, Duration: 15 * time.Second},
		{Kind: faults.LatencySpike, Start: 150 * time.Second, Duration: 30 * time.Second, Latency: time.Second},
	})
	a, aLog, _ := runLogged(t, faultedConfig(t, sched, 7))
	b, bLog, _ := runLogged(t, faultedConfig(t, sched, 7))
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aLog, bLog) {
		t.Fatal("identical fault configs produced different results")
	}
	c, cLog, _ := runLogged(t, faultedConfig(t, sched, 8))
	if a.Faults == c.Faults && a.Retries == c.Retries && reflect.DeepEqual(aLog, cLog) {
		t.Fatal("different injector seeds produced identical sessions")
	}
}

func TestInjectorDegradesToRmin(t *testing.T) {
	// A long, dense failure episode: the retry budget at the chosen rate
	// runs out and the session must drop to the bottom rung rather than
	// abort.
	sched := faults.MustSchedule([]faults.Fault{
		{Kind: faults.StallBody, Start: 20 * time.Second, Duration: 3 * time.Minute},
	})
	var events []telemetry.Event
	cfg := faultedConfig(t, sched, 3)
	cap := &telemetry.Capture{}
	cfg.Observer = cap
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events = cap.Events
	if res.Degradations == 0 {
		t.Fatalf("no degradation over a 3-minute stall episode (retries %d)", res.Retries)
	}
	if res.Incomplete {
		t.Fatal("session aborted despite graceful degradation")
	}
	var sawDegrade, sawFault, sawRetry bool
	for _, e := range events {
		switch e.Kind {
		case telemetry.Degrade:
			sawDegrade = true
			if e.RateIndex != 0 {
				t.Errorf("degrade to rate index %d, want 0 (R_min)", e.RateIndex)
			}
		case telemetry.FaultInject:
			sawFault = true
			if e.Label != "stall_body" {
				t.Errorf("fault label %q, want stall_body", e.Label)
			}
		case telemetry.ChunkRetry:
			sawRetry = true
		}
	}
	if !sawDegrade || !sawFault || !sawRetry {
		t.Fatalf("telemetry missing fault events: degrade=%v fault=%v retry=%v", sawDegrade, sawFault, sawRetry)
	}
}

func TestInjectorLatencySpikeSlowsSession(t *testing.T) {
	sched := faults.MustSchedule([]faults.Fault{
		{Kind: faults.LatencySpike, Start: 0, Duration: 5 * time.Minute, Latency: 2 * time.Second},
	})
	clean, err := Run(Config{
		Algorithm: abr.NewBBA0(), Stream: cbrStream(t, 60),
		Trace: trace.Constant(8*units.Mbps, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Algorithm: abr.NewBBA0(), Stream: cbrStream(t, 60),
		Trace:    trace.Constant(8*units.Mbps, time.Hour),
		Injector: faults.NewSessionInjector(sched, 1),
	}
	spiked, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spiked.JoinDelay <= clean.JoinDelay {
		t.Errorf("spiked join delay %v not above clean %v", spiked.JoinDelay, clean.JoinDelay)
	}
	if spiked.Faults != 0 || spiked.Retries != 0 {
		t.Errorf("latency spikes alone should not count as faults (faults %d retries %d)", spiked.Faults, spiked.Retries)
	}
}

func TestNilInjectorUnchanged(t *testing.T) {
	mk := func() Config {
		return Config{
			Algorithm: abr.NewBBA1(), Stream: cbrStream(t, 80),
			Trace: trace.Constant(5*units.Mbps, time.Hour),
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	// An injector with an empty schedule must be observationally identical
	// to no injector at all.
	cfg := mk()
	cfg.Injector = faults.NewSessionInjector(nil, 0)
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("empty-schedule injector changed the session")
	}
}
