package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bba/internal/stats"
)

// CheckpointSchema identifies the checkpoint file format.
const CheckpointSchema = "bba-campaign-checkpoint/v1"

// ShardAccums is one completed shard's per-group accumulators, the atomic
// unit of checkpointing: a shard is recorded only once fully complete, so a
// resume can never double-count sessions.
type ShardAccums struct {
	Shard  int           `json:"shard"`
	Groups []*GroupAccum `json:"groups"`
}

// Checkpoint is the resumable state of a campaign, written atomically as
// JSON. Prefix holds the in-order fold of shards [0, PrefixShards); Done
// holds completed shards beyond the prefix — out-of-order completions in
// one process, or a coordinator's deliveries — sorted by shard index.
// fold() moves Done entries into the prefix as soon as they become
// contiguous, so a checkpoint holds O(groups) state plus only the shards
// completed out of order.
type Checkpoint struct {
	Schema       string        `json:"schema"`
	Identity     Identity      `json:"identity"`
	PrefixShards int           `json:"prefix_shards"`
	Prefix       []*GroupAccum `json:"prefix,omitempty"`
	Done         []ShardAccums `json:"done,omitempty"`
}

// NewCheckpoint returns an empty checkpoint for the identity. A remote
// fold (internal/coord) seeds its state with it and records delivered
// shards through the same in-order path a local run uses — that shared
// fold is what makes the fleet's report byte-identical.
func NewCheckpoint(id Identity) *Checkpoint {
	return &Checkpoint{Schema: CheckpointSchema, Identity: id}
}

// Has reports whether shard s is already recorded.
func (c *Checkpoint) Has(s int) bool {
	if s < c.PrefixShards {
		return true
	}
	i := sort.Search(len(c.Done), func(i int) bool { return c.Done[i].Shard >= s })
	return i < len(c.Done) && c.Done[i].Shard == s
}

// Record stores a completed shard's accumulators and folds any newly
// contiguous prefix. It returns an error, and changes nothing, on
// duplicates — a duplicate means double-counting, the exact bug
// checkpointing exists to prevent — on accumulators that are not the
// identity's groups in its order, on sketches the fold cannot merge
// exactly (checkSketch), and on sketches sharing a hash with a recorded
// shard's (checkDisjoint), which the fold would refuse halfway. Record
// takes ownership of accums.
func (c *Checkpoint) Record(s int, accums []*GroupAccum) error { return c.record(s, accums, nil) }

// record is Record handing every set fold merges into the prefix back to
// free, when free is not nil.
func (c *Checkpoint) record(s int, accums []*GroupAccum, free *accumSets) error {
	if c.Has(s) {
		return fmt.Errorf("campaign: shard %d recorded twice", s)
	}
	if err := c.checkGroups(s, accums); err != nil {
		return err
	}
	if err := c.checkDisjoint(s, accums); err != nil {
		return err
	}
	i := sort.Search(len(c.Done), func(i int) bool { return c.Done[i].Shard >= s })
	c.Done = append(c.Done, ShardAccums{})
	copy(c.Done[i+1:], c.Done[i:])
	c.Done[i] = ShardAccums{Shard: s, Groups: accums}
	return c.fold(free)
}

// checkDisjoint refuses shard s's accums when one of its sketches shares
// a hash with the same sketch of the prefix or of a parked shard, among
// the K smallest of the two: a session counted twice, and the one merge a
// checked shard can fail in fold, halfway through. Parked shards are
// checked too, since a hash shared with one would fail the fold of
// whichever shard joins the two; and a hash among the K smallest of a
// fold is among the K smallest of any two sets holding it, so checking
// pairs finds every hash a fold would meet.
func (c *Checkpoint) checkDisjoint(s int, accums []*GroupAccum) error {
	check := func(recorded []*GroupAccum) error {
		for i, g := range accums {
			have := recorded[i].dists()
			for j, d := range g.dists() {
				if err := have[j].Sketch.CheckMerge(d.Sketch); err != nil {
					return fmt.Errorf("campaign: shard %d group %q %s: %w", s, g.Name, distNames[j], err)
				}
			}
		}
		return nil
	}
	if c.Prefix != nil {
		if err := check(c.Prefix); err != nil {
			return err
		}
	}
	for _, d := range c.Done {
		if err := check(d.Groups); err != nil {
			return err
		}
	}
	return nil
}

// fold merges Done entries into Prefix while they are contiguous with it.
// This is the single merge path — always left-to-right in shard-index order —
// so the folded state is bit-identical no matter which workers or processes
// computed the shards. The first merge seeds the prefix, a set of its own
// with every sketch at capacity K; a merged set is handed to free, when
// not nil, shard 0's included.
func (c *Checkpoint) fold(free *accumSets) error {
	for len(c.Done) > 0 && c.Done[0].Shard == c.PrefixShards {
		if c.Prefix == nil {
			c.Prefix = newAccumSet(c.Identity, c.Identity.SketchSize)
		}
		if err := mergeAccumSets(c.Prefix, c.Done[0].Groups); err != nil {
			return err
		}
		if free != nil {
			free.put(c.Done[0].Groups)
		}
		c.PrefixShards++
		c.Done = c.Done[1:]
	}
	return nil
}

// pending returns how many completed shards are parked beyond the prefix.
func (c *Checkpoint) pending() int { return len(c.Done) }

// CompletedShards returns how many shards the checkpoint has recorded.
func (c *Checkpoint) CompletedShards() int { return c.PrefixShards + len(c.Done) }

// SessionsDone returns the paired sessions covered by recorded shards.
func (c *Checkpoint) SessionsDone() int64 {
	var n int64
	for s := 0; s < c.PrefixShards; s++ {
		n += int64(c.Identity.shardSessions(s))
	}
	for _, d := range c.Done {
		n += int64(c.Identity.shardSessions(d.Shard))
	}
	return n
}

// Complete reports whether every shard of the campaign is folded into the
// prefix.
func (c *Checkpoint) Complete() bool {
	return c.PrefixShards == c.Identity.Shards() && len(c.Done) == 0
}

// validate checks structural invariants of a loaded or resumed checkpoint.
func (c *Checkpoint) validate() error {
	if c.Schema != CheckpointSchema {
		return fmt.Errorf("campaign: checkpoint schema %q, want %q", c.Schema, CheckpointSchema)
	}
	if c.Identity.Shards() == 0 {
		return fmt.Errorf("campaign: checkpoint identity has no shards")
	}
	if err := c.Identity.checkLayout(); err != nil {
		return err
	}
	if c.PrefixShards > 0 {
		if err := c.checkGroups(-1, c.Prefix); err != nil {
			return err
		}
	}
	last := c.PrefixShards - 1
	for _, d := range c.Done {
		if d.Shard <= last {
			return fmt.Errorf("campaign: checkpoint shard %d out of order or duplicated", d.Shard)
		}
		if d.Shard >= c.Identity.Shards() {
			return fmt.Errorf("campaign: checkpoint shard %d beyond campaign's %d shards", d.Shard, c.Identity.Shards())
		}
		if err := c.checkGroups(d.Shard, d.Groups); err != nil {
			return err
		}
		last = d.Shard
	}
	return nil
}

// checkGroups checks that shard's groups (the prefix's, when shard < 0)
// hold one accumulator per identity group, each named after its group, in
// the identity's order, and that every sketch is one the fold merges
// exactly (checkSketch): a report names each group after its accumulator,
// and a fold merges accumulator i of every shard into group i.
func (c *Checkpoint) checkGroups(shard int, groups []*GroupAccum) error {
	if len(groups) != len(c.Identity.Groups) {
		return fmt.Errorf("campaign: %s has %d groups, identity %d", groupsOf(shard), len(groups), len(c.Identity.Groups))
	}
	for i, g := range groups {
		if g == nil {
			return fmt.Errorf("campaign: %s group %d is null", groupsOf(shard), i)
		}
		if g.Name != c.Identity.Groups[i] {
			return fmt.Errorf("campaign: %s group %d is %q, identity %q", groupsOf(shard), i, g.Name, c.Identity.Groups[i])
		}
		for j, d := range g.dists() {
			if err := checkSketch(d.Sketch, c.Identity.SketchSize); err != nil {
				return fmt.Errorf("campaign: %s group %q %s: %w", groupsOf(shard), g.Name, distNames[j], err)
			}
		}
	}
	return nil
}

// checkSketch refuses a sketch the fold cannot merge exactly under an
// identity retaining k samples: another K, more entries than K, hashes not
// strictly ascending, or fewer samples seen than retained. A sketch
// recorded at a smaller K would pass its few retained samples off as the
// bottom k of the union, and its quantiles as exact.
func checkSketch(q stats.QuantileSketch, k int) error {
	switch {
	case q.K != k:
		return fmt.Errorf("sketch K %d, identity %d", q.K, k)
	case len(q.Entries) > q.K:
		return fmt.Errorf("sketch holds %d entries, K %d", len(q.Entries), q.K)
	case q.Seen < int64(len(q.Entries)):
		return fmt.Errorf("sketch saw %d samples but holds %d", q.Seen, len(q.Entries))
	}
	for i := 1; i < len(q.Entries); i++ {
		if q.Entries[i-1].Hash >= q.Entries[i].Hash {
			return fmt.Errorf("sketch hashes not strictly ascending at entry %d", i)
		}
	}
	return nil
}

// groupsOf names whose groups checkGroups refused.
func groupsOf(shard int) string {
	if shard < 0 {
		return "prefix"
	}
	return fmt.Sprintf("shard %d", shard)
}

// Save writes the checkpoint atomically: marshal, write a temp file in the
// target directory, fsync, rename. A crash mid-save leaves the previous
// checkpoint intact.
func (c *Checkpoint) Save(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("campaign: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bbacampaign-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaign: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("campaign: publish checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint %s: %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return &c, nil
}

// cloneAccums deep-copies a shard's accumulators so a report's fold never
// aliases the checkpoint's state.
func cloneAccums(src []*GroupAccum) []*GroupAccum {
	out := make([]*GroupAccum, len(src))
	for i, a := range src {
		cp := *a
		for _, d := range cp.dists() {
			d.Sketch.Entries = append([]stats.SketchEntry(nil), d.Sketch.Entries...)
		}
		out[i] = &cp
	}
	return out
}
