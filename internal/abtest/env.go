package abtest

import (
	"fmt"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/trace"
)

// SessionEnv is the per-draw environment of one paired session: the
// stream view, the (possibly fault-reshaped) trace, and the shared fault
// injector — everything the paired common-random-numbers design shares
// across groups. PlayUser builds one and streams the groups sequentially;
// the batch kernel builds the same env and advances the groups' sessions
// as concurrent lanes. Either way each group sees identical inputs, so
// results are identical.
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
// and arms the injector, exactly as PlayUser always did.
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
