// Package sharedlink simulates several streaming players (and optional
// long-lived bulk flows) competing for one bottleneck link, the Section 8
// scenario: "when competing with other video players, if the buffer is
// full, all players have reached Rmax, and so the algorithm is fair".
//
// The link is processor-sharing: the trace capacity C(t) divides equally
// among the flows that are actively downloading, the idealized behaviour of
// long-lived TCP flows sharing a bottleneck. Chunk completions therefore
// depend on every other flow's activity — including the ON-OFF pattern of
// players with full buffers — which requires the discrete-event scheduling
// of internal/simclock rather than the single-session player's analytic
// time stepping.
package sharedlink

import (
	"errors"
	"fmt"
	"time"

	"bba/internal/abr"
	"bba/internal/player"
	"bba/internal/simclock"
	"bba/internal/trace"
	"bba/internal/units"
)

// PlayerConfig describes one competing streaming client.
type PlayerConfig struct {
	Algorithm  abr.Algorithm
	Stream     abr.Stream
	BufferMax  time.Duration // 0 means buffer.DefaultMax
	WatchLimit time.Duration // 0 plays the whole title
	StartAt    time.Duration // session join time on the shared link
}

// Config describes the shared-bottleneck scenario.
type Config struct {
	// Trace is the bottleneck capacity, shared by everyone.
	Trace *trace.Trace
	// Players are the competing streaming clients.
	Players []PlayerConfig
	// BulkFlows adds permanently-active downloads (long-lived TCP
	// transfers) that always consume their processor-sharing share.
	BulkFlows int
	// Horizon stops the simulation at this virtual time even if players
	// have not finished (0 means 6 hours).
	Horizon time.Duration
}

// Result extends the per-player session result with the link-level view.
type Result struct {
	// Players are the sessions' results, each on its own session clock
	// (zero at the player's StartAt), like every other player.Result.
	Players []*player.Result
	// BulkBytes is the total traffic the bulk flows moved.
	BulkBytes int64
	// Horizon reports when the simulation ended.
	Horizon time.Duration
}

// FairnessIndex computes Jain's fairness index over the players' average
// delivered video rates: (Σx)² / (n·Σx²), 1.0 meaning perfectly equal.
func (r *Result) FairnessIndex() float64 {
	var sum, sumSq float64
	n := 0
	for _, p := range r.Players {
		x := p.AvgRateKbps()
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

type flow struct {
	bytesLeft  float64
	lastSettle time.Duration
	completion *simclock.Event
	onDone     func()
}

// Run executes the scenario.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil {
		return nil, errors.New("sharedlink: nil trace")
	}
	if len(cfg.Players) == 0 && cfg.BulkFlows == 0 {
		return nil, errors.New("sharedlink: nothing to simulate")
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 6 * time.Hour
	}

	var clock simclock.Clock
	active := make(map[*flow]struct{})
	out := &Result{Horizon: horizon}

	// settle charges the just-ended interval against every active flow —
	// using the trace integral, so intervals spanning a rate boundary are
	// charged exactly — and reschedules completions at the new share.
	// Callers MUST settle before mutating the active set: the interval
	// being closed out ran under the old membership.
	var settle func()
	settle = func() {
		now := clock.Now()
		n := len(active)
		for f := range active {
			if elapsed := now - f.lastSettle; elapsed > 0 {
				delivered := cfg.Trace.BytesBetween(f.lastSettle, now)
				f.bytesLeft -= float64(delivered) / float64(n)
				f.lastSettle = now
			}
		}
		// Reschedule all completions at the current instantaneous share;
		// rate-boundary events re-settle before the estimate goes stale.
		var rate units.BitRate
		if n > 0 {
			rate = units.BitRate(int64(cfg.Trace.RateAt(now)) / int64(n))
		}
		for f := range active {
			if f.completion != nil {
				clock.Cancel(f.completion)
				f.completion = nil
			}
			if f.bytesLeft <= 0 {
				f := f
				f.completion = clock.After(0, func() { finish(f, active, settle) })
				continue
			}
			if rate <= 0 {
				continue // outage: wait for the next rate change
			}
			f := f
			f.completion = clock.After(rate.DurationFor(int64(f.bytesLeft+0.5)), func() {
				finish(f, active, settle)
			})
		}
	}

	// Rate-change events at every trace segment boundary within the
	// horizon keep the shares honest.
	var boundary time.Duration
	for _, seg := range cfg.Trace.Segments() {
		boundary += seg.Duration
		if boundary >= horizon {
			break
		}
		clock.Schedule(boundary, settle)
	}

	// join settles the outgoing interval under the old membership, then
	// admits the flow and reschedules everyone at the new share.
	join := func(f *flow) {
		settle()
		f.lastSettle = clock.Now()
		active[f] = struct{}{}
		settle()
	}

	// Bulk flows: each completes a 4 MB transfer and immediately starts
	// the next, so it is always active.
	for i := 0; i < cfg.BulkFlows; i++ {
		var start func()
		start = func() {
			f := &flow{bytesLeft: 4e6}
			f.onDone = func() {
				out.BulkBytes += 4e6
				start()
			}
			join(f)
		}
		clock.Schedule(0, start)
	}

	// Streaming players: each is a player.Session whose download is a
	// flow on the shared link. The session asks for a chunk, the clock
	// lets its ON-OFF wait pass, the flow joins, and its completion
	// delivers the chunk and asks again.
	sessions := make([]player.Session, len(cfg.Players))
	var engineErr error
	for i, pc := range cfg.Players {
		ss := &sessions[i]
		if err := ss.Start(player.Config{
			Algorithm:  pc.Algorithm,
			Stream:     pc.Stream,
			BufferMax:  pc.BufferMax,
			WatchLimit: pc.WatchLimit,
		}); err != nil {
			return nil, fmt.Errorf("sharedlink: player %d: %w", i, err)
		}
		out.Players = append(out.Players, ss.Result())

		var request func()
		request = func() {
			req, done := ss.Request()
			if done {
				return
			}
			issue := func() {
				issued := clock.Now()
				f := &flow{bytesLeft: float64(req.Bytes)}
				f.onDone = func() {
					if _, err := ss.Deliver(req, req.Bytes, clock.Now()-issued); err != nil && engineErr == nil {
						engineErr = fmt.Errorf("sharedlink: player %d: %w", i, err)
					}
					request()
				}
				join(f)
			}
			// A request with no wait joins within the current event, so
			// simultaneous completions keep their order.
			if req.Wait > 0 {
				clock.After(req.Wait, issue)
			} else {
				issue()
			}
		}
		clock.Schedule(pc.StartAt, request)
	}

	clock.Run(horizon)

	// The horizon cuts short whoever is still mid-session.
	for i := range sessions {
		sessions[i].Finish()
	}
	return out, engineErr
}

func finish(f *flow, active map[*flow]struct{}, settle func()) {
	if _, ok := active[f]; !ok {
		return
	}
	// Close out the interval under the old membership (f included), then
	// remove the flow and reschedule the survivors at their new share.
	settle()
	delete(active, f)
	settle()
	if f.onDone != nil {
		f.onDone()
	}
}
