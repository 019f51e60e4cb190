package abtest

import (
	"context"
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
// across groups. The batch kernel builds one per draw and advances the
// groups' sessions as concurrent lanes; PlayUser, the test oracle, builds
// the same env and streams the groups sequentially. Either way each group
// sees identical inputs, so results are identical.
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
}

// NewSessionEnv builds the environment for one paired draw. When fcfg is
// non-nil the fault schedule drawn from (fcfg, fseed) reshapes the trace
// and arms the injector.
func NewSessionEnv(u User, video *media.Video, fcfg *faults.ScheduleConfig, fseed int64) (SessionEnv, error) {
	return new(Scratch).NewSessionEnv(u, video, fcfg, fseed)
}

// NewSessionEnv is the package's NewSessionEnv drawing the schedule from
// the scratch's RNG and reshaping the trace in its builder.
func (sc *Scratch) NewSessionEnv(u User, video *media.Video, fcfg *faults.ScheduleConfig, fseed int64) (SessionEnv, error) {
	env := SessionEnv{
		User:      u,
		Stream:    abr.NewStream(video, u.Rmin),
		Trace:     u.Trace,
		FaultSeed: fseed,
	}
	if fcfg != nil {
		sched := faults.Generate(*fcfg, sc.Rand(fseed))
		tr, err := sched.ApplyWith(&sc.tb, u.Trace)
		if err != nil {
			return SessionEnv{}, fmt.Errorf("fault trace: %w", err)
		}
		env.Trace = tr
		env.Injector = faults.NewSessionInjector(sched, fseed)
	}
	return env, nil
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
