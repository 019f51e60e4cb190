package replay

import (
	"math/rand"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/trace"
	"bba/internal/units"
)

func session(t *testing.T, alg abr.Algorithm, tr *trace.Trace) (*player.Result, abr.Stream) {
	t.Helper()
	v, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: 450}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s := abr.NewStream(v, 0)
	res, err := player.Run(player.Config{
		Algorithm:  alg,
		Stream:     s,
		Trace:      tr,
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

func TestTraceFromResultValidation(t *testing.T) {
	if _, err := TraceFromResult(nil); err != ErrNoObservations {
		t.Errorf("nil result: %v", err)
	}
	if _, err := TraceFromResult(&player.Result{}); err != ErrNoObservations {
		t.Errorf("empty result: %v", err)
	}
}

func TestReconstructionMatchesConstantNetwork(t *testing.T) {
	// On a constant link every observation is the link rate, so the
	// reconstructed trace is flat at that rate.
	res, _ := session(t, abr.NewBBA2(), trace.Constant(3*units.Mbps, time.Hour))
	tr, err := TraceFromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at < tr.Total(); at += 10 * time.Second {
		r := tr.RateAt(at)
		if r < 2990*units.Kbps || r > 3010*units.Kbps {
			t.Fatalf("reconstructed rate at %v = %v, want ≈3Mb/s", at, r)
		}
	}
}

func TestReconstructionSeesTheStep(t *testing.T) {
	// A Figure 4-style collapse must be visible in the reconstruction.
	step := trace.Step(5*units.Mbps, 350*units.Kbps, 25*time.Second, time.Hour)
	res, _ := session(t, abr.NewBBA2(), step)
	tr, err := TraceFromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	early := tr.RateAt(5 * time.Second)
	late := tr.RateAt(2 * time.Minute)
	if early < 4*units.Mbps {
		t.Errorf("pre-collapse reconstruction %v, want ≈5Mb/s", early)
	}
	if late > 500*units.Kbps {
		t.Errorf("post-collapse reconstruction %v, want ≈350kb/s", late)
	}
}

func TestWhatIfCounterfactual(t *testing.T) {
	// Live an aggressive-estimator session through the Figure 4 collapse,
	// then ask what BBA-0 would have done on the same observed network:
	// the counterfactual must be stall-free, as the paper argues.
	step := trace.Step(5*units.Mbps, 350*units.Kbps, 25*time.Second, time.Hour)
	aggressive := abr.NewAggressiveControl()
	aggressive.SeedCapacity(5 * units.Mbps)
	original, stream := session(t, aggressive, step)
	if original.StallTime == 0 {
		t.Fatal("the original session should have frozen (it is the Figure 4 scenario)")
	}

	counterfactual, err := WhatIf(original, player.Config{
		Algorithm:  abr.NewBBA0(),
		Stream:     stream,
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if counterfactual.Rebuffers != 0 {
		t.Errorf("BBA-0 on the observed network rebuffered %d times; the paper says this rebuffer was unnecessary", counterfactual.Rebuffers)
	}
	if counterfactual.Played == 0 {
		t.Error("counterfactual played nothing")
	}
}

func TestWhatIfSelfReplayIsCalm(t *testing.T) {
	// Replaying the ORIGINAL algorithm against its own reconstruction is
	// not bit-identical (idle gaps are interpolated) but must land in the
	// same regime: similar average rate, no catastrophic divergence.
	res, stream := session(t, abr.NewBBA2(), trace.Markov(trace.MarkovConfig{
		Base:     3 * units.Mbps,
		Sigma:    0.6,
		Duration: time.Hour,
		Floor:    300 * units.Kbps,
	}, rand.New(rand.NewSource(8))))
	again, err := WhatIf(res, player.Config{
		Algorithm:  abr.NewBBA2(),
		Stream:     stream,
		WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.AvgRateKbps(), again.AvgRateKbps()
	if b < 0.6*a || b > 1.4*a {
		t.Errorf("self-replay diverged: %.0f vs %.0f kb/s", a, b)
	}
}
