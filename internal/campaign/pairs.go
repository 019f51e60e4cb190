package campaign

import (
	"fmt"
	"math"
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

// Paired is one metric's paired sample between two arms: arm A's values,
// arm B's and their per-draw differences A−B, each over the same draws —
// those where both arms qualify for the metric and the difference is
// finite. Welch needs A and B; a paired interval needs D too.
type Paired struct {
	A, B, D stats.Welford
}

func (p *Paired) add(a, b float64) {
	d := a - b
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return // a non-finite arm value; the group report counts it
	}
	// d is finite only when a and b are, so no Add can refuse its sample.
	_ = p.A.Add(a)
	_ = p.B.Add(b)
	_ = p.D.Add(d)
}

func (p *Paired) merge(o *Paired) {
	p.A.Merge(o.A)
	p.B.Merge(o.B)
	p.D.Merge(o.D)
}

// swapped is the same sample seen from B: the arms trade places and every
// difference changes sign, which IEEE negation does exactly.
func (p Paired) swapped() Paired {
	d := p.D
	d.Mean, d.Min, d.Max = -d.Mean, -d.Max, -d.Min
	return Paired{A: p.B, B: p.A, D: d}
}

// Pair is one unordered pair of arms compared draw by draw: QoE win counts
// over every draw, and a Paired sample per window class and metric.
type Pair struct {
	A, B  string
	Draws int64
	// WinsA, WinsB and Ties compare total session QoE (both arms stream the
	// same watch budget, so totals are commensurable).
	WinsA, WinsB, Ties int64
	By                 [metrics.NumClasses][numMetrics]Paired
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
	addDraw(&p.By[metrics.AllWindows], a, b)
	if c := metrics.ClassOf(a.Window); c != metrics.AllWindows {
		addDraw(&p.By[c], a, b)
	}
}

// addDraw folds one draw into each metric the two sessions qualify for.
func addDraw(by *[numMetrics]Paired, a, b metrics.Session) {
	by[MetricAvgRate].add(a.AvgRateKbps, b.AvgRateKbps)
	if a.StartupRateKbps > 0 && b.StartupRateKbps > 0 {
		by[MetricStartup].add(a.StartupRateKbps, b.StartupRateKbps)
	}
	if a.PlayHours > 0 && b.PlayHours > 0 {
		by[MetricQoE].add(a.QoE/a.PlayHours, b.QoE/b.PlayHours)
		by[MetricRebuffer].add(float64(a.Rebuffers)/a.PlayHours, float64(b.Rebuffers)/b.PlayHours)
		by[MetricSwitch].add(float64(a.Switches)/a.PlayHours, float64(b.Switches)/b.PlayHours)
	}
}

func (p *Pair) merge(o *Pair) {
	p.Draws += o.Draws
	p.WinsA += o.WinsA
	p.WinsB += o.WinsB
	p.Ties += o.Ties
	for c := range p.By {
		for m := range p.By[c] {
			p.By[c][m].merge(&o.By[c][m])
		}
	}
}

// Pairs is the campaign's paired comparison, an Extra: one Pair per
// unordered pair of groups (i < j, in group order), fed every draw whole.
// Every arm plays the same user, title and trace in a draw, so a per-draw
// difference carries none of the between-user variance that dominates a
// heavy-tailed rebuffer rate. Each shard adds its draws in offset order and
// the campaign merges shards in shard order, so every Welford is the same
// at any worker count or kernel width.
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

// Compare returns the paired sample of groups a and b for one window class
// and metric, oriented so that A holds a's values and D is a − b.
func (ps *Pairs) Compare(a, b string, c metrics.Class, m Metric) (Paired, error) {
	for i := range ps.pairs {
		p := &ps.pairs[i]
		switch {
		case p.A == a && p.B == b:
			return p.By[c][m], nil
		case p.A == b && p.B == a:
			return p.By[c][m].swapped(), nil
		}
	}
	return Paired{}, fmt.Errorf("campaign: no pair of groups %q and %q", a, b)
}

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
