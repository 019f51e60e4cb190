// Command dashserver serves a synthetic VBR title over HTTP for the
// bbaplay client (or any HTTP client): a JSON manifest at /manifest.json,
// chunk bodies at /chunk/{rate}/{index}, Prometheus-text metrics at
// /metrics and a liveness probe at /healthz. It shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight chunk downloads.
//
// With -faults every chunk request must name its session, attempt and
// session clock (?s=&a=&t=, as the dash client does; else a 400), and the
// origin acts out the simulator's fault decision for them.
//
// Pass "-addr :0" to bind a free port; the bound address is printed on the
// first line of output, so scripted harnesses (and the soak rig) can run
// parallel instances without port races.
//
// Example:
//
//	dashserver -addr 127.0.0.1:8404 -chunks 900 &
//	bbaplay -url http://127.0.0.1:8404 -alg BBA-2 -watch 30s
//	curl http://127.0.0.1:8404/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"time"

	"bba/internal/dash"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/obs"
	"bba/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8404", "listen address (\":0\" binds a free port and prints it)")
		chunks    = flag.Int("chunks", 900, "title length in chunks")
		chunkMS   = flag.Int("chunk-ms", 4000, "chunk duration in milliseconds")
		seed      = flag.Int64("seed", 1, "seed for the synthetic title")
		withFault = flag.Bool("faults", false, "serve in fault-injecting mode (seeded 5xx bursts, stalled bodies, resets, latency spikes, on each session's clock; chunk requests must carry s, a and t)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault schedule and, mixed with each request's session, its fault decisions")
	)
	flag.Parse()

	cfg := serverConfig{
		addr: *addr, chunks: *chunks, chunkMS: *chunkMS, seed: *seed,
		withFaults: *withFault, faultSeed: *faultSeed,
	}
	obs.Main("dashserver", func(ctx context.Context) error { return run(ctx, cfg) })
}

// serverConfig carries the flag set.
type serverConfig struct {
	addr       string
	chunks     int
	chunkMS    int
	seed       int64
	withFaults bool
	faultSeed  int64
	// ready is a test seam: receives the bound address once serving.
	ready chan<- string
}

// run serves until ctx is cancelled (SIGINT/SIGTERM in main), then shuts
// the origin down gracefully.
func run(ctx context.Context, cfg serverConfig) error {
	srv, video, err := buildServer(cfg.chunks, cfg.chunkMS, cfg.seed)
	if err != nil {
		return err
	}
	prom := telemetry.NewProm("bba")
	srv.Observer = prom
	if cfg.withFaults {
		// The HTTP-path kinds only: blackouts and collapses are capacity
		// faults, which belong to the network between client and server
		// (shape the client's transport with internal/netem), not to the
		// origin.
		fc := faults.DefaultScheduleConfig()
		fc.Horizon = 24 * time.Hour
		fc.Blackouts = faults.EpisodeConfig{}
		fc.Collapses = faults.EpisodeConfig{}
		sched := faults.GenerateSeeded(fc, cfg.faultSeed)
		srv.Injector = &faults.HTTPInjector{Schedule: sched, Seed: cfg.faultSeed}
		fmt.Printf("fault mode: %d episodes scheduled over 24h (seed %d)\n", sched.Len(), cfg.faultSeed)
	}

	o, err := dash.StartOrigin(cfg.addr, srv, dash.OriginConfig{
		Metrics:       prom,
		ShutdownGrace: shutdownGrace,
	})
	if err != nil {
		return err
	}
	fmt.Printf("serving %q (%d chunks of %v, ladder %v–%v) on http://%s (/metrics, /healthz)\n",
		video.Title, video.NumChunks(), video.ChunkDuration,
		video.Ladder.Min(), video.Ladder.Max(), o.Addr())
	if cfg.ready != nil {
		cfg.ready <- o.Addr()
	}

	select {
	case <-o.Done():
		return o.Err()
	case <-ctx.Done():
		fmt.Println("dashserver: shutting down")
		return o.Close(context.Background())
	}
}

// shutdownGrace bounds how long a draining server waits for in-flight
// chunk downloads before closing their connections.
const shutdownGrace = 5 * time.Second

// buildServer constructs the synthetic title and its HTTP handler.
func buildServer(chunks, chunkMS int, seed int64) (*dash.Server, *media.Video, error) {
	video, err := media.NewVBR(media.VBRConfig{
		Title:         "dashserver",
		Ladder:        media.DefaultLadder(),
		ChunkDuration: time.Duration(chunkMS) * time.Millisecond,
		NumChunks:     chunks,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	srv, err := dash.NewServer(video)
	if err != nil {
		return nil, nil, err
	}
	return srv, video, nil
}
