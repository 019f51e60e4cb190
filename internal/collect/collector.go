package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"bba/internal/campaign"
	"bba/internal/obs"
)

// DefaultDedupWindow bounds per-stream out-of-order admission state.
const DefaultDedupWindow = 4096

// ErrUnknownRun reports a shard or run-end frame for a run the collector
// has not seen a RunStart for. It is retryable: under reordering the
// RunStart may simply not have landed yet, so the collector NACKs and the
// shipper's retry delivers the frame after it has.
var ErrUnknownRun = errors.New("collect: unknown run")

// ErrRunIncomplete reports a run whose report cannot be rendered yet:
// shards are still outstanding. Pollers treat it as "come back later"
// (HTTP 409), distinct from a run the collector never heard of (404).
var ErrRunIncomplete = errors.New("collect: run incomplete")

// ErrArchive reports an event frame NACKed because the archive could not
// persist its batch. It is retryable in protocol terms (the shipper keeps
// the frame and retries), but the failure is sticky: once one write
// fails, the collector refuses every later event frame without attempting
// the write, so the archive stays a clean prefix of the admitted stream
// until an operator restarts the collector with a healthy archive.
var ErrArchive = errors.New("collect: archive unavailable")

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	// DedupWindow bounds each stream's out-of-order admission state
	// (default DefaultDedupWindow). Reliable frames beyond it are NACKed
	// for retry; event frames slide the window instead.
	DedupWindow int
	// Archive, when non-nil, persists every admitted event batch. Batches
	// are telemetry journal JSONL (telemetry.AppendJSONL) in admission
	// order. Persistence gates acknowledgement: a fresh event frame is
	// archived BEFORE its sequence number is spent, and a failed Append
	// NACKs the frame — the collector never acknowledges an event frame it
	// did not persist. The first failure is sticky (see ErrArchive):
	// subsequent event frames are refused outright, /healthz degrades, and
	// bba_collect_archive_errors_total counts the refusals.
	Archive Archiver
}

// CollectorStats is a snapshot of collector activity.
type CollectorStats struct {
	// Frames counts admitted frames by kind name; FramesDup counts
	// duplicate deliveries recognized and discarded — the at-least-once
	// overhead the dedup layer absorbs.
	Frames      map[string]int64
	FramesDup   int64
	FramesBad   int64 // undecodable or invalid: permanently rejected
	FramesRetry int64 // NACKed retryable (window overflow, unknown run)
	Events      int64 // events admitted across all event frames
	Runs        int64 // runs started
	RunsEnded   int64
	Streams     int64 // distinct (run, session) streams seen
	Shards      int64 // shard frames folded into checkpoints
	ShardsDup   int64 // shard frames for already-recorded shards
	// ArchiveErrors counts event frames NACKed because the archive could
	// not persist them: the first failed write plus every sticky refusal
	// after it.
	ArchiveErrors int64
}

// Collector is the server half of the pipeline: it ingests frames,
// verifies and dedups them, and folds shard aggregates into
// per-run campaign checkpoints. Ingest is safe for concurrent use; all
// state lives behind one mutex, which loopback benchmarks show is nowhere
// near the bottleneck at the target ingest rate.
type Collector struct {
	cfg CollectorConfig

	mu      sync.Mutex
	streams map[streamKey]*stream
	runs    map[string]*runState
	stats   CollectorStats
	// archiveErr is the sticky first archive failure; once set, event
	// frames are NACKed without touching the archive.
	archiveErr error
	subs       map[int]chan TailMsg
	nextSub    int
}

type streamKey struct {
	run     string
	session uint64
}

// runState is one run's aggregation state.
type runState struct {
	id    campaign.Identity
	cp    *campaign.Checkpoint
	ended bool
}

// NewCollector returns a Collector with the config's defaults applied.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = DefaultDedupWindow
	}
	return &Collector{
		cfg:     cfg,
		streams: make(map[streamKey]*stream),
		runs:    make(map[string]*runState),
		stats:   CollectorStats{Frames: make(map[string]int64)},
	}
}

// Ingest processes one encoded frame. A nil return acknowledges the frame
// (including recognized duplicates — re-acknowledging a duplicate is what
// stops retry loops). Errors matching ErrDedupWindow or ErrUnknownRun are
// retryable NACKs; anything else is a permanent rejection.
//
// Validation runs before admission: an admitted (run, session, seq) is
// spent forever, so a frame must be fully applicable before its seq is
// consumed — otherwise a retry of a failed frame would be discarded as a
// duplicate and its payload lost.
func (c *Collector) Ingest(b []byte) error {
	f, _, err := DecodeFrame(b)
	if err != nil {
		c.mu.Lock()
		c.stats.FramesBad++
		c.mu.Unlock()
		return err
	}
	return c.ingestFrame(f)
}

func (c *Collector) ingestFrame(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	key := streamKey{run: f.Run, session: f.Session}

	// Validate the payload and stage the state change before admitting.
	var apply func()
	switch f.Kind {
	case PayloadEvents:
		// The archive lane is sticky-failed: refuse before any other work,
		// so the archive stays a clean prefix of the acknowledged stream.
		if c.cfg.Archive != nil && c.archiveErr != nil {
			c.stats.ArchiveErrors++
			c.stats.FramesRetry++
			return fmt.Errorf("%w: %v", ErrArchive, c.archiveErr)
		}
		payload := f.Payload
		// The payload outlives this call (archive, tail subscribers); copy
		// out of the caller's buffer.
		if c.cfg.Archive != nil || len(c.subs) > 0 {
			payload = append([]byte(nil), f.Payload...)
		}
		if c.cfg.Archive != nil {
			// Persist BEFORE the seq is spent: an admitted seq is consumed
			// forever, so archiving after admission turns a failed write
			// into silent loss — the shipper's retry would be discarded as
			// a duplicate. Freshness is checked first so re-deliveries of
			// already-archived frames are re-ACKed without a second write.
			if st, ok := c.streams[key]; !ok || st.freshSlide(f.Seq) {
				if err := c.cfg.Archive.Append(f.Run, payload); err != nil {
					c.archiveErr = err
					c.stats.ArchiveErrors++
					c.stats.FramesRetry++
					return fmt.Errorf("%w: %v", ErrArchive, err)
				}
			}
		}
		apply = func() {
			c.stats.Events += int64(bytes.Count(payload, []byte{'\n'}))
			c.publish(f.Run, payload)
		}
	case PayloadRunStart:
		var id campaign.Identity
		if err := json.Unmarshal(f.Payload, &id); err != nil {
			c.stats.FramesBad++
			return fmt.Errorf("%w: run_start identity: %v", ErrBadFrame, err)
		}
		if id.Shards() == 0 {
			c.stats.FramesBad++
			return fmt.Errorf("%w: run_start identity has no shards", ErrBadFrame)
		}
		run := f.Run
		if r, ok := c.runs[run]; ok {
			ra, _ := json.Marshal(r.id)
			rb, _ := json.Marshal(id)
			if !bytes.Equal(ra, rb) {
				c.stats.FramesBad++
				return fmt.Errorf("%w: run %q restarted with a different identity", ErrBadFrame, run)
			}
			apply = func() {} // idempotent re-announce from another session
		} else {
			apply = func() {
				c.runs[run] = &runState{id: id, cp: campaign.NewCheckpoint(id)}
				c.stats.Runs++
			}
		}
	case PayloadShard:
		r, ok := c.runs[f.Run]
		if !ok {
			c.stats.FramesRetry++
			return fmt.Errorf("%w: %q (shard frame before run_start)", ErrUnknownRun, f.Run)
		}
		var sa campaign.ShardAccums
		if err := json.Unmarshal(f.Payload, &sa); err != nil {
			c.stats.FramesBad++
			return fmt.Errorf("%w: shard payload: %v", ErrBadFrame, err)
		}
		if sa.Shard < 0 || sa.Shard >= r.id.Shards() || len(sa.Groups) != len(r.id.Groups) {
			c.stats.FramesBad++
			return fmt.Errorf("%w: shard %d outside run %q", ErrBadFrame, sa.Shard, f.Run)
		}
		if r.cp.Has(sa.Shard) {
			// Another session already delivered this shard; the frame is
			// valid, its seq must still be spent below.
			apply = func() { c.stats.ShardsDup++ }
		} else {
			apply = func() {
				if err := r.cp.Record(sa.Shard, sa.Groups); err == nil {
					c.stats.Shards++
				} else {
					c.stats.ShardsDup++
				}
			}
		}
	case PayloadRunEnd:
		r, ok := c.runs[f.Run]
		if !ok {
			c.stats.FramesRetry++
			return fmt.Errorf("%w: %q (run_end before run_start)", ErrUnknownRun, f.Run)
		}
		apply = func() {
			if !r.ended {
				r.ended = true
				c.stats.RunsEnded++
			}
		}
	default:
		c.stats.FramesBad++
		return fmt.Errorf("%w: kind %d", ErrBadFrame, f.Kind)
	}

	st, ok := c.streams[key]
	if !ok {
		st = &stream{}
		c.streams[key] = st
		c.stats.Streams++
	}
	if f.Kind.Reliable() {
		fresh, err := st.admit(f.Seq, c.cfg.DedupWindow)
		if err != nil {
			c.stats.FramesRetry++
			return err
		}
		if !fresh {
			c.stats.FramesDup++
			return nil
		}
	} else if !st.admitSlide(f.Seq, c.cfg.DedupWindow) {
		c.stats.FramesDup++
		return nil
	}
	apply()
	c.stats.Frames[f.Kind.String()]++
	return nil
}

// Report renders run's canonical campaign report — the byte-identical
// aggregate a local run of the same identity produces. The error
// distinguishes the caller's situations: ErrUnknownRun for a run never
// announced, ErrRunIncomplete while shards are outstanding, anything else
// a render failure.
func (c *Collector) Report(run string) ([]byte, error) {
	c.mu.Lock()
	r, ok := c.runs[run]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownRun, run)
	}
	if !r.cp.Complete() {
		done, total := r.cp.CompletedShards(), r.id.Shards()
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q has %d of %d shards", ErrRunIncomplete, run, done, total)
	}
	rep, err := campaign.FinalReport(r.cp)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Stats returns a snapshot of the collector counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Frames = make(map[string]int64, len(c.stats.Frames))
	for k, v := range c.stats.Frames {
		s.Frames[k] = v
	}
	return s
}

// ArchiveError returns the sticky archive failure, nil while healthy.
func (c *Collector) ArchiveError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.archiveErr
}

// TailMsg is one admitted event batch, as delivered to Subscribe
// channels: the run it belongs to and the journal JSONL payload. The
// payload is shared between subscribers — treat it as read-only.
type TailMsg struct {
	Run     string
	Payload []byte
}

// Subscribe registers a live tail of admitted event batches. Delivery is
// best-effort: a subscriber whose buffer (default 64) is full misses
// batches rather than stalling ingest. cancel unregisters and closes the
// channel; it is safe to call more than once.
func (c *Collector) Subscribe(buf int) (ch <-chan TailMsg, cancel func()) {
	if buf <= 0 {
		buf = 64
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSub
	c.nextSub++
	sub := make(chan TailMsg, buf)
	if c.subs == nil {
		c.subs = make(map[int]chan TailMsg)
	}
	c.subs[id] = sub
	return sub, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if s, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(s)
		}
	}
}

// publish fans an admitted batch out to subscribers. Caller holds mu.
func (c *Collector) publish(run string, payload []byte) {
	for _, sub := range c.subs {
		select {
		case sub <- TailMsg{Run: run, Payload: payload}:
		default: // slow subscriber: drop, never stall ingest
		}
	}
}

// retryable reports whether err is a NACK the shipper should retry.
func retryable(err error) bool {
	return errors.Is(err, ErrDedupWindow) || errors.Is(err, ErrUnknownRun) || errors.Is(err, ErrArchive)
}

// Handler returns the collector's HTTP interface:
//
//	POST /ingest        one frame per request body; 204 acknowledges,
//	                    503 asks for retry, 400 rejects permanently
//	GET  /report/{run}  the finalized campaign report (404 until complete)
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz       liveness JSON
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", c.handleIngest)
	mux.HandleFunc("/report/", c.handleReport)
	mux.Handle("/metrics", obs.Handler(c.writeMetrics))
	mux.HandleFunc("/healthz", c.handleHealthz)
	return mux
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrame+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > MaxFrame {
		http.Error(w, "frame too large", http.StatusBadRequest)
		return
	}
	switch err := c.Ingest(body); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case retryable(err):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (c *Collector) handleReport(w http.ResponseWriter, r *http.Request) {
	run := strings.TrimPrefix(r.URL.Path, "/report/")
	if run == "" {
		http.Error(w, "missing run id", http.StatusBadRequest)
		return
	}
	body, err := c.Report(run)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case errors.Is(err, ErrUnknownRun):
		// The collector never heard of the run: the caller's mistake.
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrRunIncomplete):
		// Shards still outstanding: poll again (matches bbacoord's /report).
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s := c.Stats()
	fields := map[string]any{
		"runs":    s.Runs,
		"streams": s.Streams,
		"events":  s.Events,
	}
	if err := c.ArchiveError(); err != nil {
		// A sticky archive failure means the collector is refusing event
		// frames: alive, but not healthy.
		fields["archive_error"] = err.Error()
		obs.WriteHealth(w, false, "degraded", fields)
		return
	}
	obs.WriteHealth(w, true, "ok", fields)
}

// writeMetrics encodes a Stats snapshot through the shared exposition
// writer.
func (c *Collector) writeMetrics(w *obs.Writer) {
	s := c.Stats()
	w.CounterVec("bba_collect_frames_total", "Frames admitted, by payload kind.", "kind", s.Frames)
	counter := func(name, help string, v int64) { w.Counter(name, help, float64(v)) }
	counter("bba_collect_frames_duplicate_total", "Duplicate frames recognized and discarded.", s.FramesDup)
	counter("bba_collect_frames_bad_total", "Frames permanently rejected (decode, checksum or payload).", s.FramesBad)
	counter("bba_collect_frames_retry_total", "Frames NACKed for retry (dedup window, unknown run).", s.FramesRetry)
	counter("bba_collect_events_total", "Telemetry events admitted.", s.Events)
	counter("bba_collect_runs_total", "Campaign runs announced.", s.Runs)
	counter("bba_collect_runs_ended_total", "Campaign runs marked ended.", s.RunsEnded)
	counter("bba_collect_streams_total", "Distinct (run, session) sender streams seen.", s.Streams)
	counter("bba_collect_shards_total", "Shard aggregates folded into checkpoints.", s.Shards)
	counter("bba_collect_shards_duplicate_total", "Shard aggregates already recorded.", s.ShardsDup)
	counter("bba_collect_archive_errors_total", "Event frames NACKed because the archive could not persist them.", s.ArchiveErrors)
}
