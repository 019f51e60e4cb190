package faults

import (
	"math/rand"
	"time"
)

// EpisodeConfig shapes one fault kind's arrival process: episodes arrive
// Poisson at PerHour and last uniformly between MinDuration and
// MaxDuration.
type EpisodeConfig struct {
	// PerHour is the expected episode count per hour (0 disables the kind).
	PerHour float64
	// MinDuration and MaxDuration bound the episode length; MaxDuration
	// defaults to MinDuration when unset.
	MinDuration time.Duration
	MaxDuration time.Duration
}

func (e EpisodeConfig) enabled() bool { return e.PerHour > 0 && e.MinDuration > 0 }

func (e EpisodeConfig) drawDuration(rng *rand.Rand) time.Duration {
	max := e.MaxDuration
	if max < e.MinDuration {
		max = e.MinDuration
	}
	if max == e.MinDuration {
		return e.MinDuration
	}
	return e.MinDuration + time.Duration(rng.Int63n(int64(max-e.MinDuration)))
}

// ScheduleConfig parameterizes a seeded fault-schedule draw over a session
// horizon. Each enabled kind gets an independent Poisson arrival process,
// so schedules compose naturally: the expected fault load scales with the
// horizon and PerHour rates.
type ScheduleConfig struct {
	// Horizon is the window faults may start in (default 1 h).
	Horizon time.Duration

	// Blackouts are total link outages.
	Blackouts EpisodeConfig
	// Collapses are throughput-collapse episodes; capacity is multiplied
	// by a factor drawn uniformly from [CollapseMin, CollapseMax]
	// (defaults 0.05–0.25).
	Collapses   EpisodeConfig
	CollapseMin float64
	CollapseMax float64
	// LatencySpikes add first-byte delay per request, drawn uniformly
	// from [LatencyMin, LatencyMax] (defaults 500 ms – 2 s).
	LatencySpikes EpisodeConfig
	LatencyMin    time.Duration
	LatencyMax    time.Duration
	// ServerErrors are HTTP 503 bursts.
	ServerErrors EpisodeConfig
	// StallBodies are slowloris episodes: responses start, then hang.
	StallBodies EpisodeConfig
	// ConnResets are mid-download connection-reset episodes.
	ConnResets EpisodeConfig
}

// DefaultScheduleConfig is a moderately hostile hour of streaming: a
// couple of short blackouts and collapses, occasional latency spikes and
// 5xx bursts, rare stalls and resets. Useful as the harness's standard
// fault load.
func DefaultScheduleConfig() ScheduleConfig {
	return ScheduleConfig{
		Blackouts:     EpisodeConfig{PerHour: 2, MinDuration: 10 * time.Second, MaxDuration: 40 * time.Second},
		Collapses:     EpisodeConfig{PerHour: 2, MinDuration: 30 * time.Second, MaxDuration: 2 * time.Minute},
		LatencySpikes: EpisodeConfig{PerHour: 3, MinDuration: 10 * time.Second, MaxDuration: 30 * time.Second},
		ServerErrors:  EpisodeConfig{PerHour: 2, MinDuration: 5 * time.Second, MaxDuration: 20 * time.Second},
		StallBodies:   EpisodeConfig{PerHour: 1, MinDuration: 5 * time.Second, MaxDuration: 15 * time.Second},
		ConnResets:    EpisodeConfig{PerHour: 1, MinDuration: 5 * time.Second, MaxDuration: 15 * time.Second},
	}
}

func (c ScheduleConfig) withDefaults() ScheduleConfig {
	if c.Horizon <= 0 {
		c.Horizon = time.Hour
	}
	if c.CollapseMin <= 0 {
		c.CollapseMin = 0.05
	}
	if c.CollapseMax < c.CollapseMin {
		c.CollapseMax = 0.25
		if c.CollapseMax < c.CollapseMin {
			c.CollapseMax = c.CollapseMin
		}
	}
	if c.LatencyMin <= 0 {
		c.LatencyMin = 500 * time.Millisecond
	}
	if c.LatencyMax < c.LatencyMin {
		c.LatencyMax = 2 * time.Second
		if c.LatencyMax < c.LatencyMin {
			c.LatencyMax = c.LatencyMin
		}
	}
	return c
}

// Generate draws a fault schedule from cfg. It is deterministic given
// rng's state: the same seed always produces the same schedule, the
// property every downstream determinism guarantee builds on. Same-kind
// episodes never overlap (later arrivals are pushed past the previous
// episode's end); different kinds may coincide, as they do in the wild.
func Generate(cfg ScheduleConfig, rng *rand.Rand) *Schedule {
	s := new(Schedule)
	s.Regenerate(cfg, rng)
	return s
}

// Regenerate redraws s in place — the schedule Generate(cfg, rng) would
// return, in s's own storage — for a caller that owns s and draws one
// schedule per session. Whatever s held before is overwritten.
func (s *Schedule) Regenerate(cfg ScheduleConfig, rng *rand.Rand) {
	cfg = cfg.withDefaults()
	s.faults = s.faults[:0]
	gen := func(kind Kind, ec EpisodeConfig) {
		if !ec.enabled() {
			return
		}
		// Poisson arrivals: exponential inter-arrival gaps at PerHour.
		meanGap := time.Duration(float64(time.Hour) / ec.PerHour)
		at := time.Duration(float64(meanGap) * rng.ExpFloat64())
		for at < cfg.Horizon {
			f := Fault{Kind: kind, Start: at, Duration: ec.drawDuration(rng)}
			switch kind {
			case Collapse:
				f.Factor = cfg.CollapseMin + rng.Float64()*(cfg.CollapseMax-cfg.CollapseMin)
			case LatencySpike:
				span := cfg.LatencyMax - cfg.LatencyMin
				f.Latency = cfg.LatencyMin
				if span > 0 {
					f.Latency += time.Duration(rng.Int63n(int64(span)))
				}
			}
			s.faults = append(s.faults, f)
			// Next arrival starts after this episode ends so same-kind
			// episodes never overlap.
			at = f.End() + time.Duration(float64(meanGap)*rng.ExpFloat64())
		}
	}
	gen(Blackout, cfg.Blackouts)
	gen(Collapse, cfg.Collapses)
	gen(LatencySpike, cfg.LatencySpikes)
	gen(ServerError, cfg.ServerErrors)
	gen(StallBody, cfg.StallBodies)
	gen(ConnReset, cfg.ConnResets)
	if err := s.settle(); err != nil {
		panic(err)
	}
}

// GenerateSeeded is Generate with a fresh rand.Rand from seed.
func GenerateSeeded(cfg ScheduleConfig, seed int64) *Schedule {
	return Generate(cfg, rand.New(rand.NewSource(seed)))
}
