// Package metrics turns per-session results into the aggregates the
// paper's figures report: rebuffers per playhour, average delivered video
// rate, steady-state rate, and switch rate, grouped into the two-hour GMT
// windows used on every time axis, with across-day variance for error bars
// and normalization against the Control group.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"bba/internal/player"
	"bba/internal/stats"
)

// WindowsPerDay is the number of two-hour windows the paper's figures bin
// results into.
const WindowsPerDay = 12

// Session is one streaming session's contribution to the aggregates.
type Session struct {
	// Window is the two-hour GMT window (0 = 0:00–2:00 GMT, ...) the
	// session started in.
	Window int
	// Day distinguishes repeated days for error bars.
	Day int

	PlayHours       float64
	Rebuffers       int
	Switches        int
	AvgRateKbps     float64
	SteadyRateKbps  float64 // 0 when the session never reached steady state
	SteadyReached   bool
	StartupRateKbps float64
	// QoE is the session's composite quality-of-experience score (see
	// the QoE function).
	QoE float64
	// Faults, Retries and Degradations count fault-injection activity
	// (zero on clean runs).
	Faults       int
	Retries      int
	Degradations int
	Failovers    int
}

// FromResult extracts a Session from a player result.
func FromResult(r *player.Result, window, day int) Session {
	steady := r.SteadyAvgRateKbps()
	return Session{
		Window:          window,
		Day:             day,
		PlayHours:       r.PlayHours(),
		Rebuffers:       r.Rebuffers,
		Switches:        r.Switches,
		AvgRateKbps:     r.AvgRateKbps(),
		SteadyRateKbps:  steady,
		SteadyReached:   steady > 0,
		StartupRateKbps: r.StartupAvgRateKbps(),
		QoE:             QoE(r),
		Faults:          r.Faults,
		Retries:         r.Retries,
		Degradations:    r.Degradations,
		Failovers:       r.Failovers,
	}
}

// The QoE model's weights, the set most evaluations use: μ is the top
// rate's quality (a stalled second is as bad as a 5 Mb/s second is good)
// and τ charges each unit of quality change between adjacent chunks.
const (
	rebufferPenalty = 5 // μ, quality units per stalled second
	switchPenalty   = 1 // τ, quality units per unit of |Δq|
)

// QoE scores a session with the linear quality-of-experience model the
// literature around the paper settled on (Dobrian et al. [7], Krishnan and
// Sitaraman [11], and the models later used to train and evaluate ABR
// systems): per-chunk quality, minus a rebuffering penalty, minus a
// smoothness penalty for rate switches,
//
//	QoE = Σ_k q(R_k) − μ·stall_seconds − τ·Σ_k |q(R_{k+1}) − q(R_k)|
//
// with linear quality q = rate in Mb/s. The paper measures the three axes
// separately ("the buffer-based approach can serve as a foundation when
// considering other metrics"); this folds them into one comparable score.
func QoE(r *player.Result) float64 {
	var quality, switches, prevQ float64
	for i, n := 0, r.ChunkCount(); i < n; i++ {
		q := r.ChunkRateKbps(i) / 1000
		quality += q
		if i > 0 {
			switches += math.Abs(q - prevQ)
		}
		prevQ = q
	}
	return quality - rebufferPenalty*r.StallTime.Seconds() - switchPenalty*switches
}

// Window is a two-hour aggregate of one experiment group.
type Window struct {
	Index    int
	Sessions int

	PlayHours            float64
	RebuffersPerPlayhour float64
	SwitchesPerPlayhour  float64
	AvgRateKbps          float64 // play-hour weighted
	SteadyRateKbps       float64 // play-hour weighted over steady sessions
	StartupRateKbps      float64
	QoEPerPlayhour       float64

	// RebufferRateByDay holds the per-day rebuffer rates behind the
	// paper's error bars; RebufferRateStdDev is their spread.
	RebufferRateByDay  []float64
	RebufferRateStdDev float64
}

// Aggregate bins sessions into two-hour windows. Sessions with invalid
// windows are rejected.
func Aggregate(sessions []Session) ([]Window, error) {
	wa := NewWindowAccum()
	for i, s := range sessions {
		if err := wa.Add(s); err != nil {
			return nil, fmt.Errorf("metrics: session %d: %w", i, err)
		}
	}
	return wa.Windows(), nil
}

// WindowAccum is the incremental form of Aggregate: sessions stream in one
// at a time and the twelve window aggregates fall out at any point, with no
// per-session state retained. Streaming the same sessions in the same order
// produces bit-identical Windows to a batch Aggregate call. Not safe for
// concurrent use.
type WindowAccum struct {
	accs []windowAcc
}

type windowAcc struct {
	sessions  int
	playHours float64
	rebuffers int
	switches  int
	rateWt    float64 // Σ avgRate·playHours
	steadyWt  float64
	steadyH   float64
	startWt   float64
	startN    int
	qoeSum    float64
	byDay     map[int]*dayAcc
}

// NewWindowAccum returns an empty accumulator covering WindowsPerDay
// windows.
func NewWindowAccum() *WindowAccum {
	wa := &WindowAccum{accs: make([]windowAcc, WindowsPerDay)}
	for i := range wa.accs {
		wa.accs[i].byDay = make(map[int]*dayAcc)
	}
	return wa
}

// Add folds one session into its window. Sessions with invalid windows are
// rejected.
func (wa *WindowAccum) Add(s Session) error {
	if s.Window < 0 || s.Window >= WindowsPerDay {
		return fmt.Errorf("metrics: window %d outside [0,%d)", s.Window, WindowsPerDay)
	}
	a := &wa.accs[s.Window]
	a.sessions++
	a.playHours += s.PlayHours
	a.rebuffers += s.Rebuffers
	a.switches += s.Switches
	a.rateWt += s.AvgRateKbps * s.PlayHours
	if s.SteadyReached {
		a.steadyWt += s.SteadyRateKbps * s.PlayHours
		a.steadyH += s.PlayHours
	}
	if s.StartupRateKbps > 0 {
		a.startWt += s.StartupRateKbps
		a.startN++
	}
	a.qoeSum += s.QoE
	d := a.byDay[s.Day]
	if d == nil {
		d = &dayAcc{}
		a.byDay[s.Day] = d
	}
	d.playHours += s.PlayHours
	d.rebuffers += s.Rebuffers
	return nil
}

// Windows finalizes the current aggregates. The accumulator remains usable;
// later Adds fold into fresh finalizations.
func (wa *WindowAccum) Windows() []Window {
	out := make([]Window, WindowsPerDay)
	for i := range wa.accs {
		a := &wa.accs[i]
		w := Window{Index: i, Sessions: a.sessions, PlayHours: a.playHours}
		if a.playHours > 0 {
			w.RebuffersPerPlayhour = float64(a.rebuffers) / a.playHours
			w.SwitchesPerPlayhour = float64(a.switches) / a.playHours
			w.AvgRateKbps = a.rateWt / a.playHours
			w.QoEPerPlayhour = a.qoeSum / a.playHours
		}
		if a.steadyH > 0 {
			w.SteadyRateKbps = a.steadyWt / a.steadyH
		}
		if a.startN > 0 {
			w.StartupRateKbps = a.startWt / float64(a.startN)
		}
		days := make([]int, 0, len(a.byDay))
		for day := range a.byDay {
			days = append(days, day)
		}
		sort.Ints(days)
		for _, day := range days {
			if d := a.byDay[day]; d.playHours > 0 {
				w.RebufferRateByDay = append(w.RebufferRateByDay, float64(d.rebuffers)/d.playHours)
			}
		}
		w.RebufferRateStdDev = stats.StdDev(w.RebufferRateByDay)
		out[i] = w
	}
	return out
}

type dayAcc struct {
	playHours float64
	rebuffers int
}

// NormalizeRebuffers expresses each window's rebuffer rate as a fraction of
// the control group's rate in the same window (the paper's Figures 7b, 14b,
// 19b, 24b). Windows where the control rate is zero yield 0.
func NormalizeRebuffers(group, control []Window) []float64 {
	out := make([]float64, len(group))
	for i := range group {
		if i < len(control) && control[i].RebuffersPerPlayhour > 0 {
			out[i] = group[i].RebuffersPerPlayhour / control[i].RebuffersPerPlayhour
		}
	}
	return out
}

// NormalizeSwitches expresses switch rates relative to control (Figures 9,
// 20, 22).
func NormalizeSwitches(group, control []Window) []float64 {
	out := make([]float64, len(group))
	for i := range group {
		if i < len(control) && control[i].SwitchesPerPlayhour > 0 {
			out[i] = group[i].SwitchesPerPlayhour / control[i].SwitchesPerPlayhour
		}
	}
	return out
}

// RateDeltaKbps returns per-window control-minus-group average video rate,
// the quantity on the Y axis of Figures 8, 15, 17 and 23.
func RateDeltaKbps(control, group []Window) []float64 {
	out := make([]float64, len(group))
	for i := range group {
		if i < len(control) {
			out[i] = control[i].AvgRateKbps - group[i].AvgRateKbps
		}
	}
	return out
}

// SteadyRateDeltaKbps is RateDeltaKbps on the steady-state rate (Figure 18).
func SteadyRateDeltaKbps(control, group []Window) []float64 {
	out := make([]float64, len(group))
	for i := range group {
		if i < len(control) {
			out[i] = control[i].SteadyRateKbps - group[i].SteadyRateKbps
		}
	}
	return out
}

// WindowLabel renders a window index as its GMT span, e.g. "04-06 GMT".
func WindowLabel(i int) string {
	return fmt.Sprintf("%02d-%02d GMT", i*2, i*2+2)
}

// Class is a window class: every window, or one of the two periods the
// paper compares — Peak, the US evening peak it highlights (8pm–1am EDT =
// 0:00–5:00 GMT, windows 0, 1 and 2), and OffPeak, the "middle-of-night
// period in the USA just after peak viewing (6am–12pm GMT)", windows 3, 4
// and 5.
type Class int

const (
	AllWindows Class = iota
	Peak
	OffPeak
	NumClasses
)

// ClassOf returns window i's period, or AllWindows for a window in neither.
func ClassOf(i int) Class {
	switch {
	case 0 <= i && i < 3:
		return Peak
	case 3 <= i && i < 6:
		return OffPeak
	}
	return AllWindows
}

// Covers reports whether window i is in class c.
func (c Class) Covers(i int) bool { return c == AllWindows || ClassOf(i) == c }
