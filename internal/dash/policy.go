package dash

import (
	"time"
)

// FetchPolicy bounds how hard the client tries to land one chunk over real
// HTTP: per-attempt timeout, capped exponential backoff with deterministic
// jitter between attempts, and a total attempt budget shared across
// endpoints. The zero value means defaults.
type FetchPolicy struct {
	// ChunkTimeout caps each attempt (connection + full body); it is what
	// turns a stalled (slowloris) body into a retryable failure. Default
	// 8 s.
	ChunkTimeout time.Duration
	// MaxAttempts is the per-chunk attempt budget, across endpoints
	// (default 4).
	MaxAttempts int
	// BackoffBase and BackoffCap bound the exponential backoff between
	// attempts (defaults 200 ms and 5 s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter and names the session to a
	// fault-mode origin, so a replayed session retries on the same
	// schedule and meets the same faults.
	Seed int64
}

func (p FetchPolicy) withDefaults() FetchPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.ChunkTimeout <= 0 {
		p.ChunkTimeout = 8 * time.Second
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 200 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 5 * time.Second
	}
	return p
}

// Endpoint-health scoring constants: a failure costs one point (floored),
// a success earns one back (capped), and the client abandons an endpoint
// at switchScore.
const (
	scoreFloor  = -4
	scoreCap    = 2
	switchScore = -2
)

// FailBackAfter is how many consecutive successful requests a session must
// complete on a non-primary endpoint before it fails back to the primary.
// It is exported so harnesses that judge failover convergence (the soak
// daemon's failover_converges invariant) can decide whether a session's
// fault-free tail even had room for a full fail-back streak.
const FailBackAfter = 8

// endpointSet tracks per-endpoint health and picks which server root the
// next request uses. The ordered list expresses preference: index 0 is the
// primary, and the set fails back toward it once the current endpoint has
// proven itself for a while. All state is driven by the caller's
// success/failure reports, never the clock, so failover decisions replay
// deterministically.
type endpointSet struct {
	urls   []string
	scores []int
	active int
	streak int // consecutive successes while away from the primary
}

func newEndpointSet(urls []string) *endpointSet {
	return &endpointSet{urls: urls, scores: make([]int, len(urls))}
}

// current returns the active endpoint's index and URL.
func (es *endpointSet) current() (int, string) { return es.active, es.urls[es.active] }

// success credits the active endpoint. After FailBackAfter consecutive
// successes on a non-primary endpoint it fails back to the most-preferred
// one, giving it a clean score; the switch is reported so the caller can
// emit telemetry.
func (es *endpointSet) success() (switched bool, from, to int) {
	if es.scores[es.active] < scoreCap {
		es.scores[es.active]++
	}
	if es.active == 0 {
		return false, es.active, es.active
	}
	es.streak++
	if es.streak < FailBackAfter {
		return false, es.active, es.active
	}
	from = es.active
	es.active = 0
	es.scores[0] = 0
	es.streak = 0
	return true, from, 0
}

// failure debits the active endpoint and, once it hits the switch
// threshold, moves to the healthiest alternative (lowest index on ties).
func (es *endpointSet) failure() (switched bool, from, to int) {
	if es.scores[es.active] > scoreFloor {
		es.scores[es.active]--
	}
	es.streak = 0
	if len(es.urls) == 1 || es.scores[es.active] > switchScore {
		return false, es.active, es.active
	}
	best := -1
	for i := range es.urls {
		if i == es.active {
			continue
		}
		if best == -1 || es.scores[i] > es.scores[best] {
			best = i
		}
	}
	if best == -1 || es.scores[best] <= es.scores[es.active] {
		// Nowhere healthier to go; stay and keep retrying.
		return false, es.active, es.active
	}
	from = es.active
	es.active = best
	return true, from, best
}
