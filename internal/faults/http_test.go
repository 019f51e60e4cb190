package faults

import (
	"testing"
	"time"

	"bba/internal/stats"
)

// TestHTTPInjectorDecidesAsSessionInjector holds the origin to the
// simulator's decision: for every session, chunk and attempt, at each
// episode's edges and 1 ns either side, Decide answers what a
// SessionInjector seeded by stats.Mix(seed, session) answers in the
// player's fault loop — the latency at the issue time, then the attempt at
// the issue time plus that latency.
func TestHTTPInjectorDecidesAsSessionInjector(t *testing.T) {
	cfg := ScheduleConfig{
		Horizon:       time.Minute,
		ServerErrors:  EpisodeConfig{PerHour: 240, MinDuration: time.Second, MaxDuration: 5 * time.Second},
		StallBodies:   EpisodeConfig{PerHour: 120, MinDuration: time.Second, MaxDuration: 5 * time.Second},
		ConnResets:    EpisodeConfig{PerHour: 120, MinDuration: time.Second, MaxDuration: 5 * time.Second},
		LatencySpikes: EpisodeConfig{PerHour: 120, MinDuration: time.Second, MaxDuration: 5 * time.Second},
	}
	faulted := map[Kind]int{}
	var spiked int
	for _, seed := range []int64{1, 7, 127, -3} {
		sched := GenerateSeeded(cfg, seed)
		in := &HTTPInjector{Schedule: sched, Seed: seed}
		var times []time.Duration
		for _, f := range sched.Faults() {
			for _, edge := range []time.Duration{f.Start, f.End()} {
				times = append(times, edge-1, edge, edge+1)
			}
		}
		for _, session := range []uint64{0, 1, 42, 1 << 63} {
			ref := NewSessionInjector(sched, int64(stats.Mix(uint64(seed), session)))
			for _, at := range times {
				for chunk := 0; chunk < 6; chunk++ {
					for attempt := 0; attempt < 4; attempt++ {
						lat, kind, fault := in.Decide(session, at, chunk, attempt)
						wantLat := ref.RequestLatency(at)
						label, _, failed := ref.ChunkFault(at+wantLat, chunk, attempt)
						if lat != wantLat || fault != failed || (fault && kind.String() != label) {
							t.Fatalf("seed %d session %d at %v chunk %d attempt %d: Decide (%v, %v, %v), SessionInjector (%v, %q, %v)",
								seed, session, at, chunk, attempt, lat, kind, fault, wantLat, label, failed)
						}
						if fault {
							faulted[kind]++
						}
						if lat > 0 {
							spiked++
						}
					}
				}
			}
		}
	}
	for _, k := range []Kind{ServerError, StallBody, ConnReset} {
		if faulted[k] == 0 {
			t.Errorf("no %v decided over the grid: the comparison never saw that kind", k)
		}
	}
	if spiked == 0 {
		t.Error("no latency spike decided over the grid")
	}
}

func TestHTTPInjectorWithoutScheduleIsInert(t *testing.T) {
	empty := &HTTPInjector{Seed: 3}
	if lat, _, fault := empty.Decide(1, time.Second, 0, 0); lat != 0 || fault {
		t.Error("injector without a schedule fired")
	}
}
