// Package abtest reproduces the structure of the paper's production A/B
// experiments: randomly drawn user groups, distributed identically across
// network environments and viewing behaviour, streaming over a weekend with
// only the rate-selection algorithm differing between groups.
//
// Since we cannot run half a million real households, the population is
// synthetic but calibrated to the paper's published statistics:
//
//   - Within-session throughput variability matches Section 1–2: roughly
//     10% of sessions see a 75th/25th percentile ratio at the Figure 1
//     level (≈5.6) and roughly 10% have median throughput below half their
//     95th percentile.
//   - Load and congestion follow the two-hour GMT windows of every figure:
//     the US evening peak (0:00–5:00 GMT) is the most congested; the
//     6:00–12:00 GMT window is quiet and stable.
//   - R_min promotion follows footnote 3: users whose connections
//     historically sustain 560 kb/s stream with R_min = 560 kb/s, the rest
//     with 235 kb/s, identically across groups.
//
// Groups are paired by common random numbers: every group streams the very
// same sessions (same user, same title, same capacity trace, same watch
// duration); only the algorithm differs. This is a stronger variance
// reduction than the paper's independent groups could achieve and lets a
// much smaller population reproduce the same comparisons.
//
// The package is the population model only — users, arms, the per-draw
// session environment and the seeds that key a draw. Running a population
// is internal/campaign's job (campaign.RunWeekend is the paper's weekend
// experiment); PlayUser is the straight-line reference its tests hold the
// runner to.
package abtest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"bba/internal/media"
	"bba/internal/trace"
	"bba/internal/units"
)

// User is one synthetic household-session draw: everything about a session
// except the algorithm.
type User struct {
	// BaseCapacity is the household's median downstream capacity.
	BaseCapacity units.BitRate
	// Sigma is the log-stddev of the session's capacity process.
	Sigma float64
	// Rmin is the session's promoted minimum rate (235 or 560 kb/s).
	Rmin units.BitRate
	// History is the player's stored throughput estimate, used to seed
	// estimator-based algorithms exactly as a production client would.
	History units.BitRate
	// WatchTime is how long the viewer watches.
	WatchTime time.Duration
	// TitleIndex selects the title from the catalogue.
	TitleIndex int
	// Trace is the session's capacity process, shared across groups: the
	// draw's own rows on a DrawUser user, nil on a keyed one
	// (Scratch.DrawKeyed), which carries the draw's key instead and whose
	// trace SessionEnv writes into rows the env owns.
	Trace *trace.Trace
	// Window and Day locate the session in the experiment calendar.
	Window, Day int

	key drawKey // a keyed draw's; the zero key on any other User
}

// drawKey is everything a keyed draw is a pure function of. It repeats the
// User's Window and Day, so the draw it names does not change with the
// exported fields. ok tells a key from the zero key.
type drawKey struct {
	cfg         PopulationConfig
	window, day int
	seed        int64
	ok          bool
}

// DiurnalHarshness maps a two-hour GMT window to a 0–1 congestion level.
// Windows 0–2 cover the US evening peak the paper highlights in yellow;
// windows 3–5 are the quiet overnight/morning period where "the network
// capacity for individual sessions does not change much".
func DiurnalHarshness(window int) float64 {
	h := [...]float64{0.90, 0.85, 0.70, 0.25, 0.20, 0.25, 0.35, 0.45, 0.55, 0.60, 0.70, 0.80}
	if window < 0 || window >= len(h) {
		return 0.5
	}
	return h[window]
}

// PopulationConfig tunes the synthetic population. The zero value gets
// sensible defaults via applyDefaults.
type PopulationConfig struct {
	// MedianCapacity is the population's median household capacity.
	MedianCapacity units.BitRate
	// CapacitySigma is the across-household log-spread of capacity.
	CapacitySigma float64
	// MeanWatch is the median session watch time.
	MeanWatch time.Duration
	// OutageProb is the probability a session contains one 10–40 s
	// complete outage (DSL retrain / WiFi interference, §7.1).
	OutageProb float64
	// FadesPerHour is the peak-hour rate of sustained congestion
	// episodes (45 s – 4 min at a few hundred kb/s). These are the
	// events that separate the algorithms: a client with a drained
	// buffer or a too-high in-flight chunk rebuffers, a conservative
	// one rides them out. The realized per-session rate scales with the
	// window's harshness.
	FadesPerHour float64
	// PromotionThreshold is the historical capacity above which R_min is
	// promoted to 560 kb/s (footnote 3: "most customers").
	PromotionThreshold units.BitRate
}

func (c *PopulationConfig) applyDefaults() {
	if c.MedianCapacity <= 0 {
		c.MedianCapacity = 3500 * units.Kbps
	}
	if c.CapacitySigma <= 0 {
		c.CapacitySigma = 0.75
	}
	if c.MeanWatch <= 0 {
		c.MeanWatch = 18 * time.Minute
	}
	if c.OutageProb <= 0 {
		c.OutageProb = 0.05
	}
	if c.FadesPerHour <= 0 {
		c.FadesPerHour = 1.2
	}
	if c.PromotionThreshold <= 0 {
		c.PromotionThreshold = 1500 * units.Kbps
	}
}

// DrawUser draws one session's user and capacity trace, deterministically
// from rng. The harshness of the session's window shifts both the
// congestion discount on capacity and the variability mixture.
func DrawUser(cfg PopulationConfig, window, day int, rng *rand.Rand) User {
	return new(Scratch).DrawUser(cfg, window, day, rng)
}

// DrawUser is the package's DrawUser with every intermediate of the trace
// synthesis kept in the scratch; only the finished User.Trace is allocated.
func (sc *Scratch) DrawUser(cfg PopulationConfig, window, day int, rng *rand.Rand) User {
	u := sc.compose(cfg, window, day, rng)
	tr, err := sc.tb.Trace()
	if err != nil {
		panic(fmt.Sprintf("abtest: materialising a drawn trace: %v", err))
	}
	u.Trace = tr
	return u
}

// DrawKeyed is DrawUser(cfg, window, day, rand.New(rand.NewSource(seed)))
// returning the User with its draw's key in place of its trace, and
// allocates nothing: the draw is a pure function of its key, so
// SessionEnv.Reset packs the trace from the scratch's builder while the
// scratch still holds this draw's composition, and composes the draw
// again from the key once it does not — the campaign's sessions take the
// first path, a replay of a retained User the second.
func (sc *Scratch) DrawKeyed(cfg PopulationConfig, window, day int, seed int64) User {
	u := sc.compose(cfg, window, day, sc.Rand(seed))
	u.key = drawKey{cfg: cfg, window: window, day: day, seed: seed, ok: true}
	sc.held = u.key
	return u
}

// compose draws a user from rng and composes its capacity trace in the
// scratch's builder, leaving User.Trace nil.
func (sc *Scratch) compose(cfg PopulationConfig, window, day int, rng *rand.Rand) User {
	sc.held = drawKey{}
	cfg.applyDefaults()
	h := DiurnalHarshness(window)

	// Household capacity: log-normal across the population, discounted by
	// up to 35% at peak congestion.
	base := cfg.MedianCapacity.Scale(math.Exp(cfg.CapacitySigma * rng.NormFloat64()))
	base = base.Scale(1 - 0.35*h)
	base = base.Clamp(500*units.Kbps, 60*units.Mbps)

	// Variability mixture: most sessions are stable; a harsh-window-
	// dependent tail is as variable as the paper's Figure 1 session.
	var sigma float64
	switch p := rng.Float64(); {
	case p < 0.04+0.30*h:
		sigma = 0.9 + 0.7*rng.Float64() // "highly variable": 75/25 up to ≈5.6+
	case p < 0.16+0.65*h:
		sigma = 0.4 + 0.4*rng.Float64() // moderate
	default:
		sigma = 0.05 + 0.25*rng.Float64() // stable
	}

	// Session watch time: log-normal, between 5 minutes and 3 hours.
	watchSecs := cfg.MeanWatch.Seconds() * math.Exp(0.5*rng.NormFloat64())
	watch := units.SecondsToDuration(watchSecs)
	if watch < 5*time.Minute {
		watch = 5 * time.Minute
	}
	if watch > 3*time.Hour {
		watch = 3 * time.Hour
	}

	// History: what the client remembers of past throughput — the base
	// capacity seen through noise.
	history := base.Scale(math.Exp(0.2 * rng.NormFloat64()))

	rmin := 235 * units.Kbps
	if history >= cfg.PromotionThreshold {
		rmin = 560 * units.Kbps
	}

	// Capacity process: Markov-modulated around the household base, with
	// occasional deep fades (floor well below R_min, so even the R_min
	// Always group rebuffers occasionally — the nonzero lower bound in
	// Figure 7).
	sc.tb.Markov(trace.MarkovConfig{
		Base:      base,
		Sigma:     sigma,
		MeanDwell: 8 * time.Second,
		Duration:  watch + 15*time.Minute,
		Floor:     64 * units.Kbps,
	}, rng)

	// Overlay sustained congestion fades and the occasional hard outage.
	overrides := sc.overrides[:0]
	meanFades := cfg.FadesPerHour * (0.25 + 0.75*h) * watch.Hours()
	for n := poisson(meanFades, rng); n > 0; n-- {
		// Durations are log-spread from ~30 s bursts to multi-minute
		// congestion episodes; depth is relative to the household's own
		// capacity, so a healthy connection fades to a few hundred kb/s
		// while an already-poor one can dip below R_min.
		dur := units.SecondsToDuration((0.4 + 0.6*h) * 30 * math.Exp(0.9*math.Abs(rng.NormFloat64())))
		if dur > 6*time.Minute {
			dur = 6 * time.Minute
		}
		depth := base.Scale(0.04+0.16*rng.Float64()).Clamp(80*units.Kbps, 2*units.Mbps)
		overrides = append(overrides, trace.Override{
			Start:    units.SecondsToDuration(rng.Float64() * watch.Seconds()),
			Duration: dur,
			Rate:     depth,
		})
	}
	if rng.Float64() < cfg.OutageProb {
		overrides = append(overrides, trace.Override{
			Start:    units.SecondsToDuration(rng.Float64() * watch.Seconds()),
			Duration: time.Duration(10+rng.Intn(31)) * time.Second,
			Rate:     0,
		})
	}
	sc.overrides = overrides
	if err := fade(&sc.tb, overrides); err != nil {
		// The draw above yields only positive durations and rates and fade
		// drops colliding spans, so this is a bug, not a property of the
		// population: fail with the draw rather than stream an un-faded user.
		panic(fmt.Sprintf("abtest: drawing a trace for base %v sigma %.3f watch %v with overrides %+v: %v", base, sigma, watch, overrides, err))
	}

	return User{
		BaseCapacity: base,
		Sigma:        sigma,
		Rmin:         rmin,
		History:      history,
		WatchTime:    watch,
		TitleIndex:   rng.Intn(1 << 30),
		Window:       window,
		Day:          day,
	}
}

// Pick returns the user's title from the catalogue.
func (u User) Pick(c *media.Catalog) *media.Video { return c.Pick(u.TitleIndex) }

// fade overlays the given spans on the trace composed in tb, dropping
// overrides that overlap an earlier one or start beyond the trace (random
// draws may collide; losing a colliding fade keeps the draw simple and
// unbiased).
func fade(tb *trace.Builder, overrides []trace.Override) error {
	if len(overrides) == 0 {
		return nil
	}
	slices.SortFunc(overrides, func(a, b trace.Override) int { return cmp.Compare(a.Start, b.Start) })
	kept := overrides[:0]
	cursor := time.Duration(0)
	for _, o := range overrides {
		if o.Start < cursor || o.Start > tb.Total() {
			continue
		}
		kept = append(kept, o)
		cursor = o.Start + o.Duration
	}
	return tb.Override(kept)
}

// poisson draws a Poisson variate by Knuth's method; fine for small means.
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
