package coord

import (
	"time"

	"bba/internal/campaign"
)

// Spec is the campaign description a coordinator runs and hands every
// worker on join: the campaign identity itself (the name survives as an
// alias for callers that spell it coord.Spec). Execution knobs (engine,
// parallelism, widths) are deliberately absent from an identity: they are
// per-worker choices that never change the result, which is exactly why a
// mixed fleet of scalar and batch workers still folds to one byte-identical
// report.
type Spec = campaign.Identity

// Wire messages. Every endpoint takes and returns JSON; durations travel
// as milliseconds so the protocol has no dependence on Go's duration
// encoding.

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Worker names the worker; it must be stable across the worker's
	// requests (leases are owned by name) and unique within the fleet.
	Worker string `json:"worker"`
}

// JoinResponse hands the worker everything it needs to execute leases.
type JoinResponse struct {
	// Identity is the campaign in normal form (defaults filled in); the
	// worker resolves it with Identity.Config, as the coordinator did.
	Identity campaign.Identity `json:"identity"`
	// LeaseTTLMillis is the lease expiry interval; workers heartbeat at a
	// fraction of it.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
	// LeaseShards is the maximum shards per lease.
	LeaseShards int `json:"lease_shards"`
}

// TTL returns the lease TTL as a duration.
func (j JoinResponse) TTL() time.Duration { return time.Duration(j.LeaseTTLMillis) * time.Millisecond }

// LeaseRequest asks for a shard-range lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a lease (possibly empty while stragglers hold the
// remaining shards) or reports the campaign complete.
type LeaseResponse struct {
	// Lease identifies the grant in heartbeats and completions; zero when
	// no shards were granted.
	Lease uint64 `json:"lease,omitempty"`
	// Shards are the granted shard indices, ascending.
	Shards []int `json:"shards,omitempty"`
	// Stolen marks a work-stealing re-lease of shards another worker still
	// holds: first completion wins, the loser's fold is a no-op.
	Stolen bool `json:"stolen,omitempty"`
	// Complete reports that every shard of the campaign is folded; the
	// worker should exit.
	Complete bool `json:"complete,omitempty"`
	// ExpiresMillis is the grant's TTL.
	ExpiresMillis int64 `json:"expires_millis,omitempty"`
}

// HeartbeatRequest extends the worker's outstanding leases.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Leases []uint64 `json:"leases,omitempty"`
}

// HeartbeatResponse lists which leases were extended; a lease missing from
// Extended has expired (its shards may already be re-leased) and the
// worker should abandon it.
type HeartbeatResponse struct {
	Extended []uint64 `json:"extended,omitempty"`
	// Complete mirrors LeaseResponse.Complete so idle workers learn the
	// campaign finished without another lease round-trip.
	Complete bool `json:"complete,omitempty"`
}

// CompleteRequest delivers one finished shard's accumulators under a lease.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
	// Shard and Groups are the campaign.ShardAccums payload — the same
	// shape a checkpoint stores.
	Shard  int                    `json:"shard"`
	Groups []*campaign.GroupAccum `json:"groups"`
}

// CompleteResponse acknowledges a shard completion.
type CompleteResponse struct {
	// Duplicate reports the shard was already folded (delivered by another
	// lease holder, or a retry); the fold was a no-op.
	Duplicate bool `json:"duplicate,omitempty"`
	// Complete reports the campaign is now fully folded.
	Complete bool `json:"complete,omitempty"`
}
