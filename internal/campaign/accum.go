package campaign

import (
	"fmt"
	"sort"
	"sync"

	"bba/internal/metrics"
	"bba/internal/stats"
)

// GroupAccum is one experiment arm's constant-memory aggregate: integer
// totals plus a streaming Dist (Welford moments + fixed-size mergeable
// quantile sketch) per paper metric. A shard folds its sessions into a
// fresh GroupAccum; the campaign folds shard accumulators in shard-index
// order, so the merged state is bit-identical at any worker count or
// fleet size. Its JSON form is the checkpoint serialization.
type GroupAccum struct {
	Name     string `json:"name"`
	Sessions int64  `json:"sessions"`
	// Rebuffers, Faults, Retries, Degradations and Failovers are exact
	// integer totals across every session folded in.
	Rebuffers    int64 `json:"rebuffers"`
	Faults       int64 `json:"faults,omitempty"`
	Retries      int64 `json:"retries,omitempty"`
	Degradations int64 `json:"degradations,omitempty"`
	Failovers    int64 `json:"failovers,omitempty"`
	// PlayHours accumulates per-session play hours (Sum() is the group's
	// total play time).
	PlayHours stats.Welford `json:"play_hours"`
	// RebufferRate is the per-session rebuffers-per-playhour distribution
	// (sessions with zero play time excluded).
	RebufferRate stats.Dist `json:"rebuffer_rate"`
	// AvgRate is the per-session delivered video rate in kb/s.
	AvgRate stats.Dist `json:"avg_rate_kbps"`
	// SteadyRate is the steady-state rate over sessions that reached
	// steady state (Figure 18's metric).
	SteadyRate stats.Dist `json:"steady_rate_kbps"`
	// SwitchRate is per-session switches per playhour.
	SwitchRate stats.Dist `json:"switch_rate"`
	// StartupRate is the first-minute average rate over sessions that
	// delivered any startup chunks.
	StartupRate stats.Dist `json:"startup_rate_kbps"`
	// QoERate is per-session QoE per playhour.
	QoERate stats.Dist `json:"qoe_per_playhour"`
}

// NewGroupAccum returns an empty accumulator whose sketches retain
// sketchSize samples each.
func NewGroupAccum(name string, sketchSize int) *GroupAccum {
	return &GroupAccum{
		Name:         name,
		RebufferRate: stats.NewDist(sketchSize),
		AvgRate:      stats.NewDist(sketchSize),
		SteadyRate:   stats.NewDist(sketchSize),
		SwitchRate:   stats.NewDist(sketchSize),
		StartupRate:  stats.NewDist(sketchSize),
		QoERate:      stats.NewDist(sketchSize),
	}
}

// NewGroupAccums returns one empty accumulator per group name, in order.
func NewGroupAccums(names []string, sketchSize int) []*GroupAccum {
	out := make([]*GroupAccum, len(names))
	for i, n := range names {
		out[i] = NewGroupAccum(n, sketchSize)
	}
	return out
}

// AddSession folds one session in. key must be unique per (group, session)
// — the campaign uses the global paired-session index — so sketch retention
// stays an unbiased sample and shard merges stay exact set unions.
func (a *GroupAccum) AddSession(key uint64, s metrics.Session) error {
	a.Sessions++
	a.Rebuffers += int64(s.Rebuffers)
	a.Faults += int64(s.Faults)
	a.Retries += int64(s.Retries)
	a.Degradations += int64(s.Degradations)
	a.Failovers += int64(s.Failovers)
	if err := a.PlayHours.Add(s.PlayHours); err != nil {
		return fmt.Errorf("campaign: group %s play hours: %w", a.Name, err)
	}
	if s.PlayHours > 0 {
		if err := stats.IgnoreNonFinite(a.RebufferRate.Add(float64(s.Rebuffers)/s.PlayHours, key)); err != nil {
			return err
		}
		if err := stats.IgnoreNonFinite(a.SwitchRate.Add(float64(s.Switches)/s.PlayHours, key)); err != nil {
			return err
		}
		if err := stats.IgnoreNonFinite(a.QoERate.Add(s.QoE/s.PlayHours, key)); err != nil {
			return err
		}
	}
	if err := stats.IgnoreNonFinite(a.AvgRate.Add(s.AvgRateKbps, key)); err != nil {
		return err
	}
	if s.SteadyReached {
		if err := stats.IgnoreNonFinite(a.SteadyRate.Add(s.SteadyRateKbps, key)); err != nil {
			return err
		}
	}
	if s.StartupRateKbps > 0 {
		if err := stats.IgnoreNonFinite(a.StartupRate.Add(s.StartupRateKbps, key)); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds another accumulator for the same group into a. Merges must
// run in shard-index order for bit-identical results.
func (a *GroupAccum) Merge(o *GroupAccum) error {
	if a.Name != o.Name {
		return fmt.Errorf("campaign: merging group %q into %q", o.Name, a.Name)
	}
	a.Sessions += o.Sessions
	a.Rebuffers += o.Rebuffers
	a.Faults += o.Faults
	a.Retries += o.Retries
	a.Degradations += o.Degradations
	a.Failovers += o.Failovers
	a.PlayHours.Merge(o.PlayHours)
	src := o.dists()
	for i, d := range a.dists() {
		if err := d.Merge(*src[i]); err != nil {
			return fmt.Errorf("campaign: group %s: %w", a.Name, err)
		}
	}
	return nil
}

// dists lists the accumulator's metric distributions.
func (a *GroupAccum) dists() [6]*stats.Dist {
	return [6]*stats.Dist{&a.RebufferRate, &a.AvgRate, &a.SteadyRate, &a.SwitchRate, &a.StartupRate, &a.QoERate}
}

// distNames names the accumulator's metric distributions, in dists order,
// as its JSON form does.
var distNames = [6]string{"rebuffer_rate", "avg_rate_kbps", "steady_rate_kbps", "switch_rate", "startup_rate_kbps", "qoe_per_playhour"}

// newAccumSet returns an empty accumulator set for id's groups whose
// sketches retain id.SketchSize samples each, every sketch's Entries
// carved from one array with capacity size: a shard's sketch never holds
// more than min(K, ShardSize) entries and the prefix's never more than K,
// so at those capacities no sketch grows, and the 3-index carve keeps one
// that did from writing into its neighbour.
func newAccumSet(id Identity, size int) []*GroupAccum {
	accums := make([]GroupAccum, len(id.Groups))
	set := make([]*GroupAccum, len(id.Groups))
	entries := make([]stats.SketchEntry, len(accums)*len(distNames)*size)
	for i, name := range id.Groups {
		a := &accums[i]
		a.Name = name
		for j, d := range a.dists() {
			*d = stats.NewDist(id.SketchSize)
			off := (i*len(distNames) + j) * size
			d.Sketch.Entries = entries[off : off : off+size]
		}
		set[i] = a
	}
	return set
}

// newShardSet returns an empty set for one of id's shards.
func newShardSet(id Identity) []*GroupAccum {
	return newAccumSet(id, min(id.SketchSize, id.ShardSize))
}

// reset empties a for another shard, as newShardSet would build it, but in
// place: each sketch keeps its Entries array, carve included, for the
// shard's Adds.
func (a *GroupAccum) reset(k int) {
	emptied := func(old stats.Dist) stats.Dist {
		d := stats.NewDist(k)
		d.Sketch.Entries = old.Sketch.Entries[:0]
		return d
	}
	*a = GroupAccum{
		Name:         a.Name,
		RebufferRate: emptied(a.RebufferRate),
		AvgRate:      emptied(a.AvgRate),
		SteadyRate:   emptied(a.SteadyRate),
		SwitchRate:   emptied(a.SwitchRate),
		StartupRate:  emptied(a.StartupRate),
		QoERate:      emptied(a.QoERate),
	}
}

// accumSets is one Run's free list of shard accumulator sets. A shard
// takes a set from it, Checkpoint.fold gives the set back once it has
// merged it into the prefix, and the next shard resets it in place. The
// merge window holds dispatched-but-unfolded shards to 2×Parallelism, so a
// run carves min(2×Parallelism, its shards) sets up front, each by
// newShardSet, and never runs short: how many it builds is a function of
// the shards it runs, not of whether the collector folded shard s before a
// worker asked for shard s+1. The prefix is a set of its own, seeded by
// fold.
type accumSets struct {
	mu    sync.Mutex
	free  [][]*GroupAccum
	built int
}

// carve adds n empty sets for id's shards to the free list.
func (p *accumSets) carve(id Identity, n int) {
	for range n {
		p.put(newShardSet(id))
	}
	p.built += n
}

// get returns an empty set for id's groups, recycled and reset in place.
// A set is free whenever a shard is dispatched: fold puts a shard's set back
// before its window token is released.
func (p *accumSets) get(id Identity) []*GroupAccum {
	p.mu.Lock()
	n := len(p.free)
	set := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	for _, a := range set {
		a.reset(id.SketchSize)
	}
	return set
}

// put returns a set nothing references any more.
func (p *accumSets) put(set []*GroupAccum) {
	p.mu.Lock()
	p.free = append(p.free, set)
	p.mu.Unlock()
}

// mergeAccumSets folds a shard's per-group accumulators into dst in group
// order.
func mergeAccumSets(dst, src []*GroupAccum) error {
	if len(dst) != len(src) {
		return fmt.Errorf("campaign: merging %d groups into %d", len(src), len(dst))
	}
	for i := range dst {
		if err := dst[i].Merge(src[i]); err != nil {
			return err
		}
	}
	return nil
}

// MetricSummary is one metric's reported aggregate: moments and extrema are
// exact; the quantiles come from the sketch and are exact whenever Exact is
// true (the population fit in the sketch), estimates with error O(1/√K)
// otherwise.
type MetricSummary struct {
	N         int64   `json:"n"`
	Mean      float64 `json:"mean"`
	StdDev    float64 `json:"stddev"`
	Min       float64 `json:"min"`
	P25       float64 `json:"p25"`
	P50       float64 `json:"p50"`
	P75       float64 `json:"p75"`
	P95       float64 `json:"p95"`
	Max       float64 `json:"max"`
	Exact     bool    `json:"exact"`
	NonFinite int64   `json:"non_finite,omitempty"`
}

// summarizeDist sorts the sketch's retained values once, into *scratch,
// and reads every reported quantile off that one sort.
func summarizeDist(d stats.Dist, scratch *[]float64) MetricSummary {
	s := MetricSummary{
		N:         d.Moments.N,
		Mean:      d.Moments.Mean,
		StdDev:    d.Moments.StdDev(),
		Min:       d.Moments.Min,
		Max:       d.Moments.Max,
		Exact:     d.Sketch.Exact(),
		NonFinite: d.NonFinite,
	}
	if d.Moments.N == 0 {
		return s
	}
	vals := (*scratch)[:0]
	for _, e := range d.Sketch.Entries {
		vals = append(vals, e.Value)
	}
	sort.Float64s(vals)
	*scratch = vals
	s.P25 = stats.PercentileSorted(vals, 25)
	s.P50 = stats.PercentileSorted(vals, 50)
	s.P75 = stats.PercentileSorted(vals, 75)
	s.P95 = stats.PercentileSorted(vals, 95)
	return s
}

// GroupReport is one arm's final aggregates.
type GroupReport struct {
	Name         string  `json:"name"`
	Sessions     int64   `json:"sessions"`
	PlayHours    float64 `json:"play_hours"`
	Rebuffers    int64   `json:"rebuffers"`
	Faults       int64   `json:"faults,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
	Degradations int64   `json:"degradations,omitempty"`
	Failovers    int64   `json:"failovers,omitempty"`
	// RebufferRatePooled is total rebuffers over total play hours — the
	// play-hour-weighted rate the paper's figures report, as opposed to the
	// unweighted per-session distribution below.
	RebufferRatePooled  float64       `json:"rebuffers_per_playhour_pooled"`
	RebufferRate        MetricSummary `json:"rebuffers_per_playhour"`
	AvgRateKbps         MetricSummary `json:"avg_rate_kbps"`
	SteadyRateKbps      MetricSummary `json:"steady_rate_kbps"`
	SwitchesPerPlayhour MetricSummary `json:"switches_per_playhour"`
	StartupRateKbps     MetricSummary `json:"startup_rate_kbps"`
	QoEPerPlayhour      MetricSummary `json:"qoe_per_playhour"`
}

// report summarizes the accumulator into its reported aggregates, sorting
// each sketch in scratch.
func (a *GroupAccum) report(scratch *[]float64) GroupReport {
	r := GroupReport{
		Name:         a.Name,
		Sessions:     a.Sessions,
		PlayHours:    a.PlayHours.Sum(),
		Rebuffers:    a.Rebuffers,
		Faults:       a.Faults,
		Retries:      a.Retries,
		Degradations: a.Degradations,
		Failovers:    a.Failovers,

		RebufferRate:        summarizeDist(a.RebufferRate, scratch),
		AvgRateKbps:         summarizeDist(a.AvgRate, scratch),
		SteadyRateKbps:      summarizeDist(a.SteadyRate, scratch),
		SwitchesPerPlayhour: summarizeDist(a.SwitchRate, scratch),
		StartupRateKbps:     summarizeDist(a.StartupRate, scratch),
		QoEPerPlayhour:      summarizeDist(a.QoERate, scratch),
	}
	if h := a.PlayHours.Sum(); h > 0 {
		r.RebufferRatePooled = float64(a.Rebuffers) / h
	}
	return r
}
