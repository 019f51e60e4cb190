package abtest

import (
	"context"
	"errors"
	"fmt"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/player"
	"bba/internal/trace"
)

// SessionEnv is the per-draw environment of one paired session: the
// stream view, the (possibly fault-reshaped) trace, and the shared fault
// injector — everything the paired common-random-numbers design shares
// across groups. The batch kernel keeps one per draw slot and rebuilds it
// in place for every draw the slot takes; PlayUser, the test oracle,
// builds the same env fresh and streams the groups sequentially. Either
// way each group sees identical inputs, so results are identical.
//
// The env's Trace is the User's own, read as given, unless the env holds
// it in rows of its own: a keyed draw's, packed from the scratch's
// builder or composed again from the draw's key, or a faulted draw's
// trace, reshaped in those rows. Of everything an env points at, only
// User.Trace outlives the draw: what the env owns, the next Reset
// rewrites.
type SessionEnv struct {
	// User is the drawn viewer (trace, title pick, watch time, R_min).
	User User
	// Stream is the session's view of the title with the user's R_min.
	Stream abr.Stream
	// Trace is the capacity process, reshaped by fault weather when the
	// draw has any.
	Trace *trace.Trace
	// Injector is the shared per-draw fault injector; nil on clean draws.
	// It is stateless, so concurrently advancing lanes may share it.
	Injector *faults.SessionInjector
	// FaultSeed keyed the schedule and seeds the retry backoff jitter.
	FaultSeed int64

	// own is what Trace and Injector point into when they are not the
	// User's, allocated on the env's first such draw and rebuilt by every
	// Reset after it.
	own *owned
}

// owned is one draw's env-owned state: the trace rows a keyed draw is
// packed into and fault weather reshapes, the schedule (with its capacity
// spans) and the injector it arms.
type owned struct {
	trace trace.Trace
	sched faults.Schedule
	inj   faults.SessionInjector
}

// NewSessionEnv builds the environment for one paired draw. When fcfg is
// non-nil the fault schedule drawn from (fcfg, fseed) reshapes the trace
// and arms the injector.
func NewSessionEnv(u User, video *media.Video, fcfg *faults.ScheduleConfig, fseed int64) (SessionEnv, error) {
	return new(Scratch).NewSessionEnv(u, video, fcfg, fseed)
}

// NewSessionEnv is the package's NewSessionEnv drawing the schedule from
// the scratch's RNG, composing a keyed draw's trace and reshaping the
// trace in its builder (see Reset). The env it returns owns its trace
// rows and fault state, so it stays valid when the scratch moves on.
func (sc *Scratch) NewSessionEnv(u User, video *media.Video, fcfg *faults.ScheduleConfig, fseed int64) (SessionEnv, error) {
	var env SessionEnv
	if err := env.Reset(sc, u, video, fcfg, fseed); err != nil {
		return SessionEnv{}, err
	}
	return env, nil
}

// Reset rebuilds e in place as sc.NewSessionEnv(u, video, fcfg, fseed)
// would build it, reusing the storage of e's trace rows, fault schedule
// and injector: the allocation-free form for a caller that owns e and
// takes one draw after another. The previous draw's Trace and Injector
// are overwritten, so nothing may still be reading them — and a copy of e
// shares that storage. u.Trace is only ever read. A keyed User
// (Scratch.DrawKeyed) has none: when sc still holds its draw's
// composition — the draw was sc's last — Reset packs that into e's rows,
// and otherwise composes the draw again from the User's key first, the
// replay of a retained User. A User with neither a trace nor a key is an
// error.
func (e *SessionEnv) Reset(sc *Scratch, u User, video *media.Video, fcfg *faults.ScheduleConfig, fseed int64) error {
	if u.Trace == nil && !u.key.ok {
		return errors.New("a User with neither a trace nor a draw key: draw it with DrawUser or Scratch.DrawKeyed")
	}
	*e = SessionEnv{
		User:      u,
		Stream:    abr.NewStream(video, u.Rmin),
		Trace:     u.Trace,
		FaultSeed: fseed,
		own:       e.own,
	}
	held := sc.held
	sc.held = drawKey{}
	if u.Trace != nil && fcfg == nil {
		return nil
	}
	o := e.own
	if o == nil {
		o = new(owned)
		e.own = o
	}
	if u.Trace == nil {
		if k := u.key; k != held {
			sc.compose(k.cfg, k.window, k.day, sc.Rand(k.seed))
		}
		if err := sc.tb.Into(&o.trace); err != nil {
			return fmt.Errorf("packing the drawn trace: %w", err)
		}
		e.Trace = &o.trace
	}
	if fcfg == nil {
		return nil
	}
	o.sched.Regenerate(*fcfg, sc.Rand(fseed))
	tr, err := o.sched.ApplyInto(&o.trace, &sc.tb, e.Trace)
	if err != nil {
		return fmt.Errorf("fault trace: %w", err)
	}
	o.inj.Reset(&o.sched, fseed)
	e.Trace, e.Injector = tr, &o.inj
	return nil
}

// PlayerConfig assembles the player configuration for one group's session
// of this draw, constructing the group's fresh per-session algorithm.
func (e *SessionEnv) PlayerConfig(g Group) player.Config {
	pc := player.Config{
		Algorithm:  g.New(e.User),
		Stream:     e.Stream,
		Trace:      e.Trace,
		WatchLimit: e.User.WatchTime,
	}
	if e.Injector != nil {
		pc.Injector = e.Injector
		pc.Retry = player.RetryPolicy{Seed: e.FaultSeed}
	}
	return pc
}

// PlayUser streams the drawn user u's identical session once per group,
// each through a fresh player.RunContext, returning one metrics.Session per
// group in group order. When fcfg is non-nil every group runs under the
// identical fault schedule drawn from (fcfg, fseed). No population runs
// through it: it is the straight-line reference the tests hold the batch
// kernel and the campaign layouts to.
func PlayUser(ctx context.Context, u User, video *media.Video, groups []Group, fcfg *faults.ScheduleConfig, fseed int64) ([]metrics.Session, error) {
	env, err := NewSessionEnv(u, video, fcfg, fseed)
	if err != nil {
		return nil, err
	}
	ms := make([]metrics.Session, len(groups))
	for gi, g := range groups {
		res, err := player.RunContext(ctx, env.PlayerConfig(g))
		if err != nil {
			return nil, fmt.Errorf("group %s: %w", g.Name, err)
		}
		ms[gi] = metrics.FromResult(res, u.Window, u.Day)
	}
	return ms, nil
}
