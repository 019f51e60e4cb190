// Command bbacollect is the fleet collection daemon: it ingests the
// telemetry event frames players ship (bbaplay -journal http://…, or any
// internal/collect Shipper) over HTTP POST, admits each (run, session)
// stream's frames above one watermark — replays and late copies are ACKed
// as duplicates — and persists each admitted batch before acknowledging
// it. With -store the watermarks live in the store's WAL beside the
// batches, so a restarted daemon still answers a frame it ACKed before as
// a duplicate; without it they are in memory, and a restart forgets them.
// Campaign shards are not its business: those cross processes through
// bbacoord alone.
//
// Endpoints:
//
//	POST /ingest        one frame per request body
//	GET  /metrics       Prometheus-text counters (-store adds the archive's
//	                    compaction-time histogram and WAL-event gauge)
//	GET  /healthz       liveness; degrades (503) on archive failure
//	GET  /runs          archived runs and storage stats (-store only)
//	GET  /query         archived events or rollups (-store only)
//	GET  /tail          live stream of admitted event batches as JSONL
//
// With -store DIR, admitted event batches are persisted in a columnar
// archive (internal/archive): WAL + immutable blocks, queryable live via
// /query and offline via bbaquery, whose -export reproduces the admitted
// journal JSONL byte for byte. Archiving gates acknowledgement: an event
// frame whose batch cannot be persisted is NACKed for retry, never
// silently dropped, and the first failure sticks until restart; a frame
// holding a line that is not canonical journal JSONL is a 400.
// SIGINT/SIGTERM drains in-flight ingests, seals the archive and exits.
//
// Example:
//
//	dashserver -addr 127.0.0.1:8404 &
//	bbacollect -addr 127.0.0.1:8406 -store fleet.archive &
//	bbaplay -url http://127.0.0.1:8404 -journal http://127.0.0.1:8406/living-room
//	curl 'http://127.0.0.1:8406/query?run=living-room&kind=rebuffer_start'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/obs"
)

type options struct {
	addr  string
	store string
	grace time.Duration
	// ready is a test seam: receives the bound HTTP address once serving.
	ready chan<- string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8406", "HTTP listen address (ingest, metrics, queries)")
	flag.StringVar(&o.store, "store", "", "columnar archive directory (enables /query and /runs)")
	flag.DurationVar(&o.grace, "grace", 5*time.Second, "drain deadline for in-flight ingests on shutdown")
	flag.Parse()

	obs.Main("bbacollect", func(ctx context.Context) error {
		return run(ctx, os.Stdout, os.Stderr, o)
	})
}

// run serves until ctx is cancelled, then drains and seals the archive.
func run(ctx context.Context, out, errw io.Writer, o options) error {
	var cfg collect.CollectorConfig
	var store *archive.Store
	if o.store != "" {
		var err error
		store, err = archive.Open(archive.Config{Dir: o.store})
		if err != nil {
			return err
		}
		cfg.Archive = store
	}
	c := collect.NewCollector(cfg)

	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	mux.HandleFunc("/tail", tailHandler(c))
	if store != nil {
		archive.QueryHandler{Store: store}.Register(mux)
		// One /metrics: the collector's families, then the store's.
		mux.Handle("/metrics", obs.Handler(func(w *obs.Writer) {
			c.WriteMetrics(w)
			store.WriteMetrics(w)
		}))
	}
	srv, err := obs.Serve(o.addr, mux, o.grace)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "collecting on %s (/ingest, /metrics, /healthz, /tail)\n", srv.URL())
	if store != nil {
		fmt.Fprintf(out, "columnar store at %s (/query, /runs)\n", o.store)
	}
	if o.ready != nil {
		o.ready <- srv.Addr()
	}

	select {
	case <-srv.Done():
		return srv.Err()
	case <-ctx.Done():
	}

	// Drain: stop accepting, finish in-flight ingests, then close the
	// archive. Every acknowledged frame is already with the OS
	// (persistence gates the ACK); what remains is sealing the columnar
	// WAL tails into blocks for offline readers.
	fmt.Fprintln(errw, "bbacollect: shutting down")
	drainErr := srv.Close(context.Background())
	if store != nil {
		if err := store.CompactAll(); err != nil {
			return err
		}
		if err := store.Close(); err != nil {
			return err
		}
	}
	printStats(errw, c.Stats())
	// A grace that expired only cut long-lived /tail streams; every ingest
	// it interrupted was never acknowledged, so the shipper retries it.
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	return nil
}

// tailHandler streams admitted event batches to the client as journal
// JSONL, flushing per batch — `curl /tail?run=r` is a live fleet log. A
// client that cannot keep up misses batches (the subscription buffer
// drops) rather than stalling ingest.
func tailHandler(c *collect.Collector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		runFilter := r.FormValue("run")
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		ch, cancel := c.Subscribe(256)
		defer cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			select {
			case msg, ok := <-ch:
				if !ok {
					return
				}
				if runFilter != "" && msg.Run != runFilter {
					continue
				}
				if _, err := w.Write(msg.Payload); err != nil {
					return
				}
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	}
}

// printStats summarizes the daemon's lifetime on shutdown.
func printStats(w io.Writer, s collect.CollectorStats) {
	var frames int64
	for _, n := range s.Frames {
		frames += n
	}
	fmt.Fprintf(w, "collected: %d frames (%d events) across %d streams; %d duplicates, %d bad, %d retried\n",
		frames, s.Events, s.Streams, s.FramesDup, s.FramesBad, s.FramesRetry)
	if s.ArchiveErrors > 0 {
		fmt.Fprintf(w, "ARCHIVE DEGRADED: %d event frames NACKed unpersisted\n", s.ArchiveErrors)
	}
}
