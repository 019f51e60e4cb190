package campaign

import (
	"fmt"
	"slices"

	"bba/internal/metrics"
	"bba/internal/stats"
)

// Metric names one of the five per-draw metrics a pair of arms is compared
// on: QoE, rebuffers and switches per playhour, over draws where both arms
// played; the delivered rate in kb/s, over every draw; and the first-minute
// rate in kb/s, over draws where both arms delivered startup chunks.
type Metric int

const (
	MetricQoE Metric = iota
	MetricRebuffer
	MetricAvgRate
	MetricSwitch
	MetricStartup
	numMetrics
)

// Pair is one unordered pair of arms compared draw by draw: QoE win counts
// over every draw, per window class and metric the A−B differences, and per
// window class the pooled rebuffer rates.
type Pair struct {
	A, B  string
	Draws int64
	// WinsA, WinsB and Ties compare total session QoE (both arms stream the
	// same watch budget, so totals are commensurable).
	WinsA, WinsB, Ties int64
	// By holds each metric's per-draw differences A−B, over the draws
	// where both arms qualify for the metric and the difference is finite.
	By [metrics.NumClasses][numMetrics]stats.Welford
	// Rebuffers holds both arms' rebuffers and play hours over every draw
	// in the class: the pooled rates the figures print and the footnote
	// test compares.
	Rebuffers [metrics.NumClasses]stats.RatioPair
}

func (p *Pair) add(a, b metrics.Session) {
	p.Draws++
	switch {
	case a.QoE > b.QoE:
		p.WinsA++
	case a.QoE < b.QoE:
		p.WinsB++
	default:
		p.Ties++
	}
	p.addDraw(metrics.AllWindows, a, b)
	if c := metrics.ClassOf(a.Window); c != metrics.AllWindows {
		p.addDraw(c, a, b)
	}
}

// addDraw folds one draw into class c: its rebuffers, and each metric the
// two sessions qualify for. Add refuses a non-finite draw or difference (a
// difference is finite only when both arm values are), and the group
// report counts the non-finite values, so the errors are dropped.
func (p *Pair) addDraw(c metrics.Class, a, b metrics.Session) {
	by := &p.By[c]
	_ = p.Rebuffers[c].Add(float64(a.Rebuffers), a.PlayHours, float64(b.Rebuffers), b.PlayHours)
	_ = by[MetricAvgRate].Add(a.AvgRateKbps - b.AvgRateKbps)
	if a.StartupRateKbps > 0 && b.StartupRateKbps > 0 {
		_ = by[MetricStartup].Add(a.StartupRateKbps - b.StartupRateKbps)
	}
	if a.PlayHours > 0 && b.PlayHours > 0 {
		_ = by[MetricQoE].Add(a.QoE/a.PlayHours - b.QoE/b.PlayHours)
		_ = by[MetricRebuffer].Add(float64(a.Rebuffers)/a.PlayHours - float64(b.Rebuffers)/b.PlayHours)
		_ = by[MetricSwitch].Add(float64(a.Switches)/a.PlayHours - float64(b.Switches)/b.PlayHours)
	}
}

func (p *Pair) merge(o *Pair) {
	p.Draws += o.Draws
	p.WinsA += o.WinsA
	p.WinsB += o.WinsB
	p.Ties += o.Ties
	for c := range p.By {
		for m := range p.By[c] {
			p.By[c][m].Merge(o.By[c][m])
		}
		p.Rebuffers[c].Merge(o.Rebuffers[c])
	}
}

// Pairs is the campaign's paired comparison, an Extra: one Pair per
// unordered pair of groups (i < j, in group order), fed every draw whole.
// Every arm plays the same user, title and trace in a draw, so a per-draw
// difference carries none of the between-user variance that dominates a
// heavy-tailed rebuffer rate. Each shard adds its draws in offset order and
// the campaign merges shards in shard order, so every accumulator is the
// same at any worker count or kernel width.
type Pairs struct {
	groups []string
	pairs  []Pair
}

// NewPairs returns the empty comparison of the named groups.
func NewPairs(groups []string) *Pairs {
	ps := &Pairs{groups: groups}
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			ps.pairs = append(ps.pairs, Pair{A: groups[i], B: groups[j]})
		}
	}
	return ps
}

// List returns every pair in canonical order: (0,1), (0,2), …, (1,2), ….
func (ps *Pairs) List() []Pair { return ps.pairs }

// AddSessionSet implements Extra: ms holds one session per group, in group
// order.
func (ps *Pairs) AddSessionSet(_ int64, ms []metrics.Session) error {
	if len(ms) != len(ps.groups) {
		return fmt.Errorf("campaign: %d sessions for %d groups", len(ms), len(ps.groups))
	}
	k := 0
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			ps.pairs[k].add(ms[i], ms[j])
			k++
		}
	}
	return nil
}

// Merge implements Extra.
func (ps *Pairs) Merge(o Extra) error {
	op, ok := o.(*Pairs)
	if !ok {
		return fmt.Errorf("campaign: merging %T into Pairs", o)
	}
	if !slices.Equal(op.groups, ps.groups) {
		return fmt.Errorf("campaign: merging pairs of %q into pairs of %q", op.groups, ps.groups)
	}
	for i := range ps.pairs {
		ps.pairs[i].merge(&op.pairs[i])
	}
	return nil
}
