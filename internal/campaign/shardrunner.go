package campaign

import (
	"context"
	"fmt"

	"bba/internal/batch"
	"bba/internal/media"
)

// engineName maps the Batch flag to the label RunStats and the CLI report.
func engineName(batchOn bool) string {
	if batchOn {
		return "batch"
	}
	return "scalar"
}

// ShardRunner executes individual shards of a campaign outside RunContext —
// the worker half of the distributed control plane. A lease-holding worker
// builds one ShardRunner per goroutine from the coordinator's campaign identity
// and runs whatever shard indices it is granted; because a shard's result
// depends only on (identity, shard), the accumulators it returns are
// bit-identical to the ones a local run computes, and the coordinator's
// in-order checkpoint fold reassembles the byte-identical report.
//
// A ShardRunner is not safe for concurrent use: its kernel reuses lanes
// and the draw scratch across shards. Create one per worker goroutine. The
// reservoir plans are not its state: they live on the catalog's titles,
// shared by every runner in the process.
type ShardRunner struct {
	cfg     Config
	id      Identity
	catalog *media.Catalog
	runner  *batch.Runner
}

// NewShardRunner validates the config and prepares the catalog and the
// kernel. Orchestration fields — Parallelism, Resume, CheckpointPath,
// CheckpointEvery, NewExtra, Progress — are ignored: the caller owns
// scheduling and folding.
func NewShardRunner(cfg Config) (*ShardRunner, error) {
	cfg.applyDefaults()
	id := cfg.identity()
	if err := id.checkLayout(); err != nil {
		return nil, err
	}
	catalog, err := media.NewCatalog(cfg.CatalogSize, cfg.Ladder, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &ShardRunner{cfg: cfg, id: id, catalog: catalog}
	r.runner = newRunner(&r.cfg, nil)
	return r, nil
}

// ShardSessions returns how many paired sessions shard s covers.
func (r *ShardRunner) ShardSessions(s int) int { return r.id.shardSessions(s) }

// RunShard executes one shard and returns its per-group accumulators —
// bit-identical to the same shard of a local run. The caller takes
// ownership of the returned accums (typically handing them straight to
// Checkpoint.Record or a coordinator completion POST).
func (r *ShardRunner) RunShard(ctx context.Context, shard int) ([]*GroupAccum, error) {
	if shard < 0 || shard >= r.id.Shards() {
		return nil, fmt.Errorf("campaign: shard %d outside [0,%d)", shard, r.id.Shards())
	}
	accums := newShardSet(r.id)
	if _, err := runShard(ctx, &r.cfg, r.catalog, shard, r.runner, accums); err != nil {
		return nil, err
	}
	return accums, nil
}
