package bba_test

import (
	"fmt"
	"log"
	"time"

	"bba"
)

// The basic loop: build a title, pick a network, stream a session.
func ExampleRunSession() {
	video, err := bba.NewCBRTitle("example", 450)
	if err != nil {
		log.Fatal(err)
	}
	result, err := bba.RunSession(bba.SessionConfig{
		Algorithm:  bba.NewBBA2(),
		Video:      video,
		Trace:      bba.ConstantTrace(4*bba.Mbps, time.Hour),
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuffers: %d\n", result.Rebuffers)
	fmt.Printf("played: %v\n", result.Played)
	// Output:
	// rebuffers: 0
	// played: 10m0s
}

// The Figure 4 counterfactual: an aggressive session freezes; the same
// observed network under a buffer-based algorithm does not.
func ExampleObservedTrace() {
	video, err := bba.NewCBRTitle("example", 450)
	if err != nil {
		log.Fatal(err)
	}
	// Live through a capacity collapse with the degenerate top-rate
	// policy — guaranteed to freeze — recording the session's events.
	var events []bba.Event
	original, err := bba.RunSession(bba.SessionConfig{
		Algorithm:  mustAlg("Rmax Always"),
		Video:      video,
		Trace:      bba.StepTrace(5*bba.Mbps, 350*bba.Kbps, 25*time.Second, time.Hour),
		WatchLimit: 5 * time.Minute,
		Observer:   bba.ObserverFunc(func(e bba.Event) { events = append(events, e) }),
	})
	if err != nil {
		log.Fatal(err)
	}
	observed, err := bba.ObservedTrace(events)
	if err != nil {
		log.Fatal(err)
	}
	// Replay what BBA-0 would have done on that same network.
	counterfactual, err := bba.RunSession(bba.SessionConfig{
		Algorithm:  bba.NewBBA0(),
		Video:      video,
		Trace:      observed,
		WatchLimit: 5 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original froze: %v\n", original.StallTime > 0)
	fmt.Printf("counterfactual rebuffers: %d\n", counterfactual.Rebuffers)
	// Output:
	// original froze: true
	// counterfactual rebuffers: 0
}

func mustAlg(name string) bba.Algorithm {
	a, err := bba.NewAlgorithm(name)
	if err != nil {
		log.Fatal(err)
	}
	return a
}
