// Command bbasoak is the continuous-verification daemon.
//
// It runs cycles forever — or exactly -cycles N in one-shot mode — each
// cycle booting a fault-injecting primary origin beside a clean secondary,
// driving concurrent netem-shaped real-HTTP sessions under a rotating
// seeded fault schedule, and checking the paper-level invariants on every
// captured journal: sessions terminate, no rebuffer begins above
// reservoir+slack, failover converges back to the primary, the degrade
// path is bounded, and what a real collector archived into the cycle's
// archive store byte-agrees with the local journals. SLO counters are
// served as Prometheus text on -metrics (/metrics, /healthz); one-shot mode
// exits non-zero if any cycle had a violation, or if an invariant the run
// exists to check (failover always, the reservoir claim with a BBA arm in
// -algs) was skipped by every session of every cycle; the cycle line and
// soak_invariant_skipped_total say which. Each cycle's store
// is a temporary directory, removed when the cycle ends; the cycle line
// reports the blocks it sealed and the events left in its WAL tail.
//
// Examples:
//
//	bbasoak -cycles 3 -watch 6s                 # one-shot CI gate
//	bbasoak -metrics 127.0.0.1:9414             # daemon, scrape /metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"bba/internal/obs"
	"bba/internal/soak"
	"bba/internal/telemetry"
)

func main() {
	var (
		cycles   = flag.Int("cycles", 0, "run N cycles and exit non-zero on any violation or never-decided gated invariant (0 = run until signalled)")
		interval = flag.Duration("interval", 2*time.Second, "pause between cycles")
		sessions = flag.Int("sessions", 6, "concurrent sessions per cycle")
		seed     = flag.Int64("seed", 1, "master seed; cycle N is reproducible from (seed, N)")
		watch    = flag.Duration("watch", 12*time.Second, "per-session watch window")
		chunkMS  = flag.Int("chunk-ms", 500, "chunk duration of the cycle titles, milliseconds")
		shape    = flag.Int("shape-kbps", 4000, "per-session shaped downstream capacity")
		algs     = flag.String("algs", "", "comma-separated algorithm rotation (default: built-in mix)")
		metrics  = flag.String("metrics", "127.0.0.1:0", "/metrics + /healthz listen address (\"\" disables; \":0\" prints the bound port)")
		journal  = flag.String("journal", "", "append soak_cycle/slo_breach JSONL to this file")
	)
	flag.Parse()

	cfg := soakConfig{
		cycles: *cycles, interval: *interval, metricsAddr: *metrics, journal: *journal,
		soak: soak.Config{
			Sessions:   *sessions,
			Seed:       *seed,
			Watch:      *watch,
			ChunkMS:    *chunkMS,
			ShapeKbps:  *shape,
			Algorithms: splitAlgs(*algs),
		},
	}
	obs.Main("bbasoak", func(ctx context.Context) error { return runSoak(ctx, cfg) })
}

// soakConfig carries the flag set.
type soakConfig struct {
	cycles      int
	interval    time.Duration
	metricsAddr string
	journal     string
	soak        soak.Config
	// ready is a test seam: receives the bound metrics address once
	// serving.
	ready chan<- string
}

// runSoak drives the cycle loop: bounded one-shot (non-zero exit on any
// failed cycle, the CI gate) or unbounded daemon (exits clean on
// SIGINT/SIGTERM; /healthz carries the verdict while it runs).
func runSoak(ctx context.Context, cfg soakConfig) error {
	cfg.soak.Logf = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	runner := soak.NewRunner(cfg.soak)
	runner.Metrics = soak.NewMetrics()

	if cfg.journal != "" {
		f, err := os.OpenFile(cfg.journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		j := telemetry.NewJournal(f)
		runner.Observer = j
		defer func() {
			j.Flush()
			f.Close()
		}()
	}

	if cfg.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", runner.Metrics)
		mux.Handle("/healthz", runner.Metrics.Healthz())
		srv, err := obs.Serve(cfg.metricsAddr, mux, time.Second)
		if err != nil {
			return err
		}
		defer srv.Close(context.Background())
		fmt.Printf("metrics on %s (/metrics, /healthz)\n", srv.URL())
		if cfg.ready != nil {
			cfg.ready <- srv.Addr()
		}
	}

	failed, undecided, err := runner.Run(ctx, cfg.cycles, cfg.interval)
	if err != nil {
		return err
	}
	if cfg.cycles > 0 && failed > 0 {
		return fmt.Errorf("%d of %d cycles violated invariants", failed, cfg.cycles)
	}
	if cfg.cycles > 0 && len(undecided) > 0 {
		return fmt.Errorf("%s: never decided in %d cycles, though this configuration exists to check it (a longer -watch?)", strings.Join(undecided, ", "), cfg.cycles)
	}
	fmt.Printf("soak: %d failed cycles\n", failed)
	return nil
}

// splitAlgs parses the -algs rotation; empty means the package default.
func splitAlgs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
