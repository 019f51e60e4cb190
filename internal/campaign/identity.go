package campaign

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/faults"
)

// Identity pins everything that determines a campaign's results, and is the
// one serialisable description of a campaign: command lines bind it (Bind),
// checkpoints and reports store it, a coordinator ships it to its workers,
// and every runner resolves it into a Config the same way (Config). A
// checkpoint is resumable under a config only when their identities are
// equal; mixing different identities would silently blend incompatible
// populations.
//
// Zero ShardSize, Days, CatalogSize and SketchSize and empty Groups mean the
// Config defaults; Config().Identity() is the normal form with them filled
// in, and FaultSeed dropped when Faults is off.
type Identity struct {
	Seed        int64    `json:"seed"`
	FaultSeed   int64    `json:"fault_seed,omitempty"`
	Faults      bool     `json:"faults,omitempty"`
	Sessions    int      `json:"sessions"`
	ShardSize   int      `json:"shard_size"`
	Days        int      `json:"days"`
	Layout      Layout   `json:"layout,omitempty"`
	CatalogSize int      `json:"catalog_size"`
	SketchSize  int      `json:"sketch_size"`
	Groups      []string `json:"groups"`
}

// ErrNoShards reports an identity with no sessions to run.
var ErrNoShards = errors.New("campaign: identity describes no shards")

// FlagDefaults returns the identity the command-line flags start from.
func FlagDefaults() Identity {
	return Identity{Seed: 2014, FaultSeed: 2014, Sessions: 10000, ShardSize: 1024, Days: 3, SketchSize: 512}
}

// Bind declares the identity flags on fs, parsing into id. The values id
// holds when Bind is called are the flags' defaults. This is the only
// declaration of these flags: every command that describes a campaign on its
// command line binds them here, so the same line means the same campaign
// everywhere.
func (id *Identity) Bind(fs *flag.FlagSet) {
	fs.Func("algos", "comma-separated experiment arms (default the paper's standard groups; part of the campaign identity); registered: "+strings.Join(abr.Names(), ", "), func(s string) error {
		id.Groups = splitArms(s)
		return nil
	})
	fs.IntVar(&id.Sessions, "sessions", id.Sessions, "paired session draws (each streamed once per group)")
	fs.IntVar(&id.ShardSize, "shard-size", id.ShardSize, "paired sessions per shard (part of the campaign identity)")
	fs.IntVar(&id.Days, "days", id.Days, "simulated calendar days")
	fs.Int64Var(&id.Seed, "seed", id.Seed, "campaign seed")
	fs.Int64Var(&id.FaultSeed, "fault-seed", id.FaultSeed, "fault-weather seed (with -faults)")
	fs.BoolVar(&id.Faults, "faults", id.Faults, "run every session under the standard fault schedule")
	fs.IntVar(&id.SketchSize, "sketch", id.SketchSize, "quantile-sketch size per metric (part of the campaign identity)")
}

// splitArms splits a comma-separated arm list, trimming blanks and dropping
// empty entries.
func splitArms(s string) []string {
	var names []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// Config resolves the identity into a runnable Config: Groups through the
// algorithm registry (abtest.Groups; an unregistered name is
// abr.ErrUnknownAlgorithm), Faults into the standard fault schedule.
// Execution choices — parallelism, kernel width, checkpoints —
// are not part of an identity; the caller sets them on the result.
func (id Identity) Config() (Config, error) {
	if id.Sessions <= 0 {
		return Config{}, fmt.Errorf("%w (sessions %d)", ErrNoShards, id.Sessions)
	}
	cfg := Config{
		Seed:        id.Seed,
		Sessions:    id.Sessions,
		ShardSize:   id.ShardSize,
		Days:        id.Days,
		Layout:      id.Layout,
		CatalogSize: id.CatalogSize,
		SketchSize:  id.SketchSize,
	}
	if len(id.Groups) > 0 {
		groups, err := abtest.Groups(id.Groups...)
		if err != nil {
			return Config{}, err
		}
		cfg.Groups = groups
	}
	if id.Faults {
		fc := faults.DefaultScheduleConfig()
		cfg.Faults = &fc
		cfg.FaultSeed = id.FaultSeed
	}
	return cfg, nil
}

// Shards returns the campaign's shard count: ⌈Sessions/ShardSize⌉. Shard s
// covers global paired-session indices [s·ShardSize, min((s+1)·ShardSize,
// Sessions)). The boundaries depend only on the identity — never on worker
// count or fleet size — which is what makes folded results bit-identical
// at any split of the work.
func (id Identity) Shards() int {
	if id.Sessions <= 0 || id.ShardSize <= 0 {
		return 0
	}
	return (id.Sessions + id.ShardSize - 1) / id.ShardSize
}

// shardSessions returns how many paired sessions shard s covers.
func (id Identity) shardSessions(s int) int {
	lo := s * id.ShardSize
	hi := lo + id.ShardSize
	if hi > id.Sessions {
		hi = id.Sessions
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
