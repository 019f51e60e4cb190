// Package batch is the campaign execution kernel, the one path every
// campaign shard runs through: it advances paired sessions through flat,
// reusable lane state — Width draws at a time, one draw at a time at
// Width 1 — instead of building a player per session.
//
// The kernel owns no simulation arithmetic. Every lane is a
// player.Session — the same step engine player.Run drives — so a
// campaign's report does not depend on the width; the kernel only changes
// *when* each session's next chunk is simulated and what gets amortized
// across sessions:
//
//   - Lane state (buffer occupancy, trace cursor, rate/stall/switch/play
//     counters) lives value-embedded in a flat lane array plus parallel
//     bookkeeping slices, allocated once per Runner and reused for every
//     session the Runner ever executes — steady state allocates nothing
//     for lane or kernel state.
//   - The kernel does nothing about reservoir plans: a BBA-1-family
//     algorithm reads its title's one shared abr.TitlePlan per (R_min,
//     window), the same table every lane, worker and standalone
//     player.Run of the title reads, so a lane runs the decision code
//     player.Run runs and a Runner builds no plan of its own.
//   - Each lane hands its session's algorithm back with abr.Release
//     right after the metrics are read, the last read of it, so the arm
//     factory's next call can reuse it; Group.New is still called once
//     per session.
//   - One abtest.Scratch holds every intermediate of drawing a user and
//     building its env: a reseeded RNG and the trace builder's buffers.
//     Each draw slot owns its env's trace rows and fault state —
//     schedule, capacity spans, injector — and rebuilds them in place for
//     every draw it takes (abtest.SessionEnv.Reset): a keyed draw's
//     (abtest.Scratch.DrawKeyed) trace is packed from the scratch's
//     builder into the slot's rows, and fault weather reshapes them there.
//     A draw allocates nothing: the User, the one thing that outlives it
//     (an arm factory may keep the User it is handed), holds the draw's
//     key by value, not a trace, and a replay of a retained User
//     composes its trace again from that key. The env the slot holds is
//     never handed to a factory.
//   - The cancellation check happens once per kernel round (one chunk
//     per active lane) instead of once per chunk.
//
// A Runner is not safe for concurrent use; each campaign worker owns one
// and keeps it across shards, so lane and scratch reuse spans a worker's
// whole share of the campaign.
package batch

import (
	"context"
	"fmt"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/player"
)

// Draw identifies one paired session for the kernel: the already-drawn
// user, the title it picked, and the draw's fault seed.
type Draw struct {
	User  abtest.User
	Video *media.Video
	Fseed int64 // ignored when the Runner has no fault config
}

// Config parameterizes a Runner.
type Config struct {
	// Groups are the experiment arms: each draw is streamed once per group
	// under identical inputs.
	Groups []abtest.Group
	// Faults, when non-nil, applies per-draw fault weather exactly as
	// abtest.PlayUser does.
	Faults *faults.ScheduleConfig
	// Width is the number of paired draws in flight (default 8). The
	// lane count is Width × len(Groups). More width amortizes stalls on
	// long sessions; memory grows with the draw slots, each holding rows
	// for the longest trace it has held.
	Width int
	// OnRetire, when non-nil, is called once per retired player session,
	// from RunShard's goroutine. Campaign progress counts sessions the
	// kernel has actually finished through this hook.
	OnRetire func()
}

// DefaultWidth is the paired-draw concurrency used when Config.Width is
// unset.
const DefaultWidth = 8

// Runner executes shards of paired sessions through reusable lanes.
type Runner struct {
	cfg Config

	// Lane state: sessions is the flat lane array (player state embedded
	// by value); laneSlot, laneGroup and laneAlg (the session's algorithm)
	// are its parallel bookkeeping slices. active holds the lane ids
	// currently advancing, idle the rest.
	sessions  []player.Session
	laneSlot  []int
	laneGroup []int
	laneAlg   []abr.Algorithm
	active    []int
	idle      []int

	// Draw slots: one per in-flight paired draw. A slot owns the shared
	// env, rebuilt in place per draw, and collects the per-group metrics
	// until the draw folds.
	// parked[off%Width] holds the slot (+1) of the completed draw at offset
	// off until the fold catches up; slots stay claimed while parked, so
	// the offsets in flight or parked always fit one window of Width.
	slots     []drawSlot
	freeSlots []int
	parked    []int
	foldNext  int // the next offset to fold

	// scratch holds the intermediates of the draw being started. Drawing a
	// user and building its env run to completion before the next draw
	// begins, and nothing they leave behind points into it, so one serves
	// every slot.
	scratch abtest.Scratch
}

type drawSlot struct {
	off int
	// env is rebuilt in place for each draw the slot takes; its lanes
	// have all retired by then, so nothing still reads the old one.
	env abtest.SessionEnv
	// remaining counts the draw's lanes still running; the draw is
	// complete when it reaches zero.
	remaining int
	ms        []metrics.Session
}

// NewRunner builds a Runner for cfg.
func NewRunner(cfg Config) *Runner {
	if cfg.Width <= 0 {
		cfg.Width = DefaultWidth
	}
	groups := len(cfg.Groups)
	lanes := cfg.Width * groups
	r := &Runner{
		cfg:       cfg,
		sessions:  make([]player.Session, lanes),
		laneSlot:  make([]int, lanes),
		laneGroup: make([]int, lanes),
		laneAlg:   make([]abr.Algorithm, lanes),
		active:    make([]int, 0, lanes),
		idle:      make([]int, 0, lanes),
		slots:     make([]drawSlot, cfg.Width),
		freeSlots: make([]int, 0, cfg.Width),
		parked:    make([]int, cfg.Width),
	}
	for lane := lanes - 1; lane >= 0; lane-- {
		r.idle = append(r.idle, lane)
	}
	for s := cfg.Width - 1; s >= 0; s-- {
		r.slots[s].ms = make([]metrics.Session, groups)
		r.freeSlots = append(r.freeSlots, s)
	}
	return r
}

// Scratch returns the draw scratch a RunShard draw callback may draw its
// user through; it is valid only inside the callback.
func (r *Runner) Scratch() *abtest.Scratch { return &r.scratch }

// flush folds every parked draw the fold has caught up with.
func (r *Runner) flush(fold func(off int, ms []metrics.Session) error) error {
	for {
		p := &r.parked[r.foldNext%len(r.parked)]
		if *p == 0 {
			return nil
		}
		s := *p - 1
		*p = 0
		if err := fold(r.foldNext, r.slots[s].ms); err != nil {
			return err
		}
		r.freeSlots = append(r.freeSlots, s)
		r.foldNext++
	}
}

// fail abandons every in-flight lane and parked draw, so the Runner is
// reusable after an aborted shard.
func (r *Runner) fail(err error) error {
	r.active = r.active[:0]
	r.idle = r.idle[:0]
	for lane := len(r.sessions) - 1; lane >= 0; lane-- {
		r.idle = append(r.idle, lane)
	}
	r.freeSlots = r.freeSlots[:0]
	for s := len(r.slots) - 1; s >= 0; s-- {
		r.freeSlots = append(r.freeSlots, s)
	}
	clear(r.parked)
	return err
}

// RunShard executes n paired draws. draw(off) supplies the draw for each
// offset in [0, n); it is called in ascending offset order, at most Width
// draws ahead of the fold. fold(off, ms) receives one metrics.Session per
// group, in group order, and is called exactly once per offset in
// ascending offset order whatever the width, which is what keeps campaign
// reports byte-identical. fold must
// not retain ms; the backing array is reused.
//
// An error from draw, fold, or any session aborts the shard. The context
// is checked once per kernel round.
func (r *Runner) RunShard(ctx context.Context, n int, draw func(off int) (Draw, error), fold func(off int, ms []metrics.Session) error) error {
	if len(r.active) != 0 {
		return fmt.Errorf("batch: Runner reused while a shard is in flight")
	}
	nextOff := 0
	r.foldNext = 0

	for r.foldNext < n {
		if err := ctx.Err(); err != nil {
			return r.fail(err)
		}
		// Refill: start draws while slots (and therefore lanes) are free.
		for len(r.freeSlots) > 0 && nextOff < n {
			d, err := draw(nextOff)
			if err != nil {
				return r.fail(err)
			}
			s := r.freeSlots[len(r.freeSlots)-1]
			slot := &r.slots[s]
			if err := slot.env.Reset(&r.scratch, d.User, d.Video, r.cfg.Faults, d.Fseed); err != nil {
				return r.fail(fmt.Errorf("batch: draw %d: %w", nextOff, err))
			}
			r.freeSlots = r.freeSlots[:len(r.freeSlots)-1]
			slot.off = nextOff
			slot.remaining = len(r.cfg.Groups)
			for gi, g := range r.cfg.Groups {
				lane := r.idle[len(r.idle)-1]
				r.idle = r.idle[:len(r.idle)-1]
				pc := slot.env.PlayerConfig(g)
				if err := r.sessions[lane].Start(pc); err != nil {
					return r.fail(fmt.Errorf("batch: draw %d group %s: %w", nextOff, g.Name, err))
				}
				r.laneSlot[lane] = s
				r.laneGroup[lane] = gi
				r.laneAlg[lane] = pc.Algorithm
				r.active = append(r.active, lane)
			}
			nextOff++
		}

		// One kernel round: advance every active lane by one chunk,
		// retiring lanes as their sessions finish.
		for i := 0; i < len(r.active); {
			lane := r.active[i]
			done, err := r.sessions[lane].Step()
			if err != nil {
				s := &r.slots[r.laneSlot[lane]]
				g := r.cfg.Groups[r.laneGroup[lane]]
				return r.fail(fmt.Errorf("batch: draw %d group %s: %w", s.off, g.Name, err))
			}
			if !done {
				i++
				continue
			}
			si := r.laneSlot[lane]
			slot := &r.slots[si]
			gi := r.laneGroup[lane]
			u := slot.env.User
			slot.ms[gi] = metrics.FromResult(r.sessions[lane].Result(), u.Window, u.Day)
			abr.Release(r.laneAlg[lane])
			r.laneAlg[lane] = nil
			if r.cfg.OnRetire != nil {
				r.cfg.OnRetire()
			}
			// Swap-remove keeps the active set dense.
			r.active[i] = r.active[len(r.active)-1]
			r.active = r.active[:len(r.active)-1]
			r.idle = append(r.idle, lane)
			slot.remaining--
			if slot.remaining == 0 {
				r.parked[slot.off%len(r.parked)] = si + 1
				if err := r.flush(fold); err != nil {
					return r.fail(err)
				}
			}
		}
	}
	return nil
}
