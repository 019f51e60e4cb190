// Package sharedlink simulates several streaming players (and optional
// long-lived bulk flows) competing for one bottleneck link, the Section 8
// scenario: "when competing with other video players, if the buffer is
// full, all players have reached Rmax, and so the algorithm is fair".
//
// The link is processor-sharing: the trace capacity C(t) divides equally
// among the flows that are actively downloading, the idealized behaviour of
// long-lived TCP flows sharing a bottleneck. Chunk completions therefore
// depend on every other flow's activity — including the ON-OFF pattern of
// players with full buffers. Run needs no event queue for that: between
// two instants at which a flow joins or leaves, the share is fixed, so one
// loop over the flows finds the next such instant, charges every active
// flow its share of the trace integral up to it, and settles the flows in
// a fixed order. A player alone on the link downloads each chunk in
// exactly the time player.Run gives it.
package sharedlink

import (
	"errors"
	"fmt"
	"time"

	"bba/internal/abr"
	"bba/internal/player"
	"bba/internal/trace"
)

// PlayerConfig describes one competing streaming client.
type PlayerConfig struct {
	Algorithm  abr.Algorithm
	Stream     abr.Stream
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

// bulkBytes is one bulk transfer. A bulk flow starts the next the instant
// one completes, so it is always downloading.
const bulkBytes = 4e6

// flow is one sender on the link: a streaming player, or a bulk flow
// (session nil) whose request is always one bulk transfer.
type flow struct {
	ss     *player.Session
	req    player.Request // the next chunk fetch, or the one downloading
	done   bool           // the player's session has ended
	active bool           // downloading
	// at is, while idle, when req joins the link (StartAt, or the end of
	// its ON-OFF wait) and, while active, when it joined.
	at   time.Duration
	left float64 // bytes still to move while active
}

// ask takes the player's next request at link time now.
func (f *flow) ask(now time.Duration) {
	req, done := f.ss.Request()
	f.req, f.done, f.at = req, done, now+req.Wait
}

// settle runs f's part of instant now: a download with nothing left is
// delivered and the player asks for its next chunk, and a request whose
// time has come joins the link.
func (f *flow) settle(now time.Duration, out *Result) (err error) {
	if f.active && f.left <= 0 {
		f.active = false
		if f.ss == nil {
			out.BulkBytes += bulkBytes
			f.at = now
		} else {
			_, err = f.ss.Deliver(f.req, f.req.Bytes, now-f.at)
			f.ask(now)
		}
	}
	if !f.active && !f.done && f.at == now {
		f.active, f.left = true, float64(f.req.Bytes)
	}
	return err
}

// Run executes the scenario. It steps from instant to instant: the next is
// the earliest idle flow's wake or the earliest completion at the current
// share, every active flow is charged its share of the capacity between
// them, and the flows settle in a fixed order — players as configured,
// then bulk flows — so identical configurations give identical results.
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

	out := &Result{Horizon: horizon}
	sessions := make([]player.Session, len(cfg.Players))
	flows := make([]flow, len(cfg.Players)+cfg.BulkFlows)
	for i, pc := range cfg.Players {
		ss := &sessions[i]
		if err := ss.Start(player.Config{
			Algorithm:  pc.Algorithm,
			Stream:     pc.Stream,
			WatchLimit: pc.WatchLimit,
		}); err != nil {
			return nil, fmt.Errorf("sharedlink: player %d: %w", i, err)
		}
		out.Players = append(out.Players, ss.Result())
		flows[i].ss = ss
		flows[i].ask(pc.StartAt)
	}
	for i := len(cfg.Players); i < len(flows); i++ {
		flows[i].req.Bytes = bulkBytes
	}

	var engineErr error
	for now := time.Duration(0); ; {
		for i := range flows {
			if err := flows[i].settle(now, out); err != nil && engineErr == nil {
				engineErr = fmt.Errorf("sharedlink: player %d: %w", i, err)
			}
		}

		n, least := 0, 0.0
		next, waking := time.Duration(0), false
		for i := range flows {
			f := &flows[i]
			switch {
			case f.active:
				if n == 0 || f.left < least {
					least = f.left
				}
				n++
			case !f.done && (!waking || f.at < next):
				next, waking = f.at, true
			}
		}
		// The flows holding least finish when n×least bytes have crossed
		// the link, unless a wake comes first.
		completes := false
		if n > 0 {
			d, ok := cfg.Trace.DownloadTime(now, int64(float64(n)*least+0.5))
			if ok && (!waking || now+d <= next) {
				next, completes = now+d, true
			}
		}
		if !completes && !waking || next > horizon {
			break
		}

		// The trace integral truncates to whole bytes, so the flows
		// holding least are finished outright rather than charged.
		if n > 0 {
			share := float64(cfg.Trace.BytesBetween(now, next)) / float64(n)
			for i := range flows {
				if f := &flows[i]; f.active {
					if completes && f.left == least {
						f.left = 0
					} else {
						f.left -= share
					}
				}
			}
		}
		now = next
	}

	// The horizon cuts short whoever is still mid-session.
	for i := range sessions {
		sessions[i].Finish()
	}
	return out, engineErr
}
