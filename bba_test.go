package bba

import (
	"testing"
	"time"
)

func TestFacadeQuickstart(t *testing.T) {
	video, err := NewVBRTitle("movie", 450, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSession(SessionConfig{
		Algorithm:  NewBBA2(),
		Video:      video,
		Trace:      ConstantTrace(4*Mbps, time.Hour),
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Played != 10*time.Minute {
		t.Errorf("played %v", res.Played)
	}
	if res.Rebuffers != 0 {
		t.Errorf("rebuffers = %d", res.Rebuffers)
	}
	if res.AvgRateKbps() < 1000 {
		t.Errorf("avg rate %.0f too low for a 4Mb/s link", res.AvgRateKbps())
	}
}

func TestFacadeConstructors(t *testing.T) {
	names := map[string]Algorithm{
		"BBA-0":       NewBBA0(),
		"BBA-1":       NewBBA1(),
		"BBA-2":       NewBBA2(),
		"BBA-Others":  NewBBAOthers(),
		"Control":     NewControl(),
		"Rmin Always": NewRminAlways(),
	}
	for want, a := range names {
		if a.Name() != want {
			t.Errorf("constructor for %q returned %q", want, a.Name())
		}
		byName, err := NewAlgorithm(want)
		if err != nil {
			t.Errorf("NewAlgorithm(%q): %v", want, err)
			continue
		}
		if byName.Name() != want {
			t.Errorf("NewAlgorithm(%q).Name() = %q", want, byName.Name())
		}
	}
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestFacadeTraces(t *testing.T) {
	tr := StepTrace(5*Mbps, 350*Kbps, 25*time.Second, time.Minute)
	if tr.RateAt(0) != 5*Mbps || tr.RateAt(30*time.Second) != 350*Kbps {
		t.Error("step trace wrong")
	}
	v := VariableTrace(4*Mbps, 5.6, 10*time.Minute, 3)
	if v.Total() != 10*time.Minute {
		t.Errorf("variable trace length %v", v.Total())
	}
	if DefaultLadder().Min() != 235*Kbps {
		t.Error("ladder wrong")
	}
}

func TestFacadeRminPromotion(t *testing.T) {
	video, err := NewCBRTitle("cbr", 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSession(SessionConfig{
		Algorithm: NewRminAlways(),
		Video:     video,
		Trace:     ConstantTrace(10*Mbps, time.Hour),
		Rmin:      560 * Kbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.ChunkCount(); i++ {
		if r := res.ChunkRateKbps(i); r != 560 {
			t.Fatalf("chunk %d at %v kb/s, want promoted 560kb/s", i, r)
		}
	}
}

func TestFacadeExperimentTiny(t *testing.T) {
	out, err := Experiment(5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Windows) != 6 {
		t.Errorf("groups = %d, want 6", len(out.Windows))
	}
}

func TestFacadeObservedTrace(t *testing.T) {
	video, err := NewCBRTitle("cbr", 120)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	_, err = RunSession(SessionConfig{
		Algorithm: NewBBA2(),
		Video:     video,
		Trace:     StepTrace(5*Mbps, 350*Kbps, 25*time.Second, time.Hour),
		Observer:  ObserverFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ObservedTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	// The counterfactual loop: the observed network is runnable again.
	again, err := RunSession(SessionConfig{
		Algorithm: NewRminAlways(),
		Video:     video,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Rebuffers != 0 {
		t.Errorf("Rmin Always rebuffered %d times on the observed network", again.Rebuffers)
	}
}
