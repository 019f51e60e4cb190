// Package arena runs N-way paired tournaments between registered ABR
// algorithms: every entrant plays the same (user, trace, fault-weather)
// draw for every seed, so head-to-head differences are pure algorithm
// effects — the paper's paired A/B design generalized from arms-vs-control
// to a full round-robin.
//
// The arena is a thin composition over the campaign layer: entrants become
// campaign groups (so the per-entrant marginals are ordinary GroupReports),
// and the pairwise state rides the campaign's Extra extension point — per
// shard, folded in shard-index order — so arena reports inherit the
// campaign's guarantee of being byte-identical at any worker count.
package arena

import (
	"fmt"

	"bba/internal/campaign"
	"bba/internal/metrics"
	"bba/internal/stats"
)

// maxEntrants bounds the field so a pair index always fits the 8 low bits
// of a sketch key (23 entrants → 253 pairs), mirroring the campaign's
// (global<<8 | group) keying.
const maxEntrants = 23

// PairAccum is one head-to-head pairing's constant-memory aggregate: win
// counts by session QoE and per-session A−B delta distributions for the
// paper's metric set. Because both sessions of a delta share their draw,
// the common-random-numbers variance cancellation applies: delta CIs are
// far tighter than differencing the two marginal summaries would be.
type PairAccum struct {
	A        string `json:"a"`
	B        string `json:"b"`
	Sessions int64  `json:"sessions"`
	// WinsA/WinsB/Ties compare total session QoE (both arms stream the
	// same watch budget, so totals are commensurable).
	WinsA int64 `json:"wins_a"`
	WinsB int64 `json:"wins_b"`
	Ties  int64 `json:"ties"`
	// The per-session A−B deltas. Rate deltas cover every paired session;
	// the per-playhour deltas cover sessions where both arms played.
	DQoERate     stats.Dist `json:"d_qoe_per_playhour"`
	DRebufRate   stats.Dist `json:"d_rebuffer_rate"`
	DAvgRate     stats.Dist `json:"d_avg_rate_kbps"`
	DSwitchRate  stats.Dist `json:"d_switch_rate"`
	DStartupRate stats.Dist `json:"d_startup_rate_kbps"`
}

func newPairAccum(a, b string, sketchSize int) *PairAccum {
	return &PairAccum{
		A: a, B: b,
		DQoERate:     stats.NewDist(sketchSize),
		DRebufRate:   stats.NewDist(sketchSize),
		DAvgRate:     stats.NewDist(sketchSize),
		DSwitchRate:  stats.NewDist(sketchSize),
		DStartupRate: stats.NewDist(sketchSize),
	}
}

// add folds one paired draw's two sessions in, keyed uniquely by the draw.
func (p *PairAccum) add(key uint64, a, b metrics.Session) error {
	p.Sessions++
	switch {
	case a.QoE > b.QoE:
		p.WinsA++
	case a.QoE < b.QoE:
		p.WinsB++
	default:
		p.Ties++
	}
	if err := stats.IgnoreNonFinite(p.DAvgRate.Add(a.AvgRateKbps-b.AvgRateKbps, key)); err != nil {
		return err
	}
	if a.StartupRateKbps > 0 && b.StartupRateKbps > 0 {
		if err := stats.IgnoreNonFinite(p.DStartupRate.Add(a.StartupRateKbps-b.StartupRateKbps, key)); err != nil {
			return err
		}
	}
	if a.PlayHours > 0 && b.PlayHours > 0 {
		if err := stats.IgnoreNonFinite(p.DQoERate.Add(a.QoE/a.PlayHours-b.QoE/b.PlayHours, key)); err != nil {
			return err
		}
		if err := stats.IgnoreNonFinite(p.DRebufRate.Add(float64(a.Rebuffers)/a.PlayHours-float64(b.Rebuffers)/b.PlayHours, key)); err != nil {
			return err
		}
		if err := stats.IgnoreNonFinite(p.DSwitchRate.Add(float64(a.Switches)/a.PlayHours-float64(b.Switches)/b.PlayHours, key)); err != nil {
			return err
		}
	}
	return nil
}

func (p *PairAccum) merge(o *PairAccum) error {
	if p.A != o.A || p.B != o.B {
		return fmt.Errorf("arena: merging pair %s/%s into %s/%s", o.A, o.B, p.A, p.B)
	}
	p.Sessions += o.Sessions
	p.WinsA += o.WinsA
	p.WinsB += o.WinsB
	p.Ties += o.Ties
	for _, m := range []struct {
		dst *stats.Dist
		src stats.Dist
	}{
		{&p.DQoERate, o.DQoERate},
		{&p.DRebufRate, o.DRebufRate},
		{&p.DAvgRate, o.DAvgRate},
		{&p.DSwitchRate, o.DSwitchRate},
		{&p.DStartupRate, o.DStartupRate},
	} {
		if err := m.dst.Merge(m.src); err != nil {
			return fmt.Errorf("arena: pair %s vs %s: %w", p.A, p.B, err)
		}
	}
	return nil
}

// MatchSet is the tournament's campaign.Extra: one PairAccum per unordered
// entrant pair (i<j), in lexicographic index order. Each shard owns a fresh
// MatchSet; the campaign folds them in shard-index order.
type MatchSet struct {
	names []string
	pairs []*PairAccum
}

// NewMatchSet returns the empty pairwise state for the named entrants.
func NewMatchSet(names []string, sketchSize int) *MatchSet {
	m := &MatchSet{names: names}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			m.pairs = append(m.pairs, newPairAccum(names[i], names[j], sketchSize))
		}
	}
	return m
}

// Pairs returns the pairings in their canonical (i<j, lexicographic index)
// order.
func (m *MatchSet) Pairs() []*PairAccum { return m.pairs }

// AddSessionSet implements campaign.Extra: ms holds one session per entrant
// in entrant order; every unordered pair folds its delta, keyed by
// (global draw, pair index) exactly as the campaign keys (draw, group).
func (m *MatchSet) AddSessionSet(global int64, ms []metrics.Session) error {
	if len(ms) != len(m.names) {
		return fmt.Errorf("arena: %d sessions for %d entrants", len(ms), len(m.names))
	}
	pi := 0
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			key := uint64(global)<<8 | uint64(pi&0xFF)
			if err := m.pairs[pi].add(key, ms[i], ms[j]); err != nil {
				return err
			}
			pi++
		}
	}
	return nil
}

// Merge implements campaign.Extra.
func (m *MatchSet) Merge(o campaign.Extra) error {
	om, ok := o.(*MatchSet)
	if !ok {
		return fmt.Errorf("arena: merging %T into MatchSet", o)
	}
	if len(om.pairs) != len(m.pairs) {
		return fmt.Errorf("arena: merging %d pairs into %d", len(om.pairs), len(m.pairs))
	}
	for i := range m.pairs {
		if err := m.pairs[i].merge(om.pairs[i]); err != nil {
			return err
		}
	}
	return nil
}
