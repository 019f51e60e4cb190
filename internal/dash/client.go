package dash

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/units"
)

// ClientConfig describes one HTTP streaming session.
type ClientConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Endpoints is the ordered server-root list for multi-endpoint
	// failover; the first entry is the primary. When empty, BaseURL is
	// the single endpoint. The client health-scores each endpoint,
	// abandons one after repeated failures, and fails back to the
	// primary once the fallback has proven itself.
	Endpoints []string
	// Fetch bounds per-chunk fetching: attempt timeout, backoff and the
	// attempt budget. The zero value means defaults.
	Fetch FetchPolicy
	// HTTPClient performs the requests; nil means http.DefaultClient.
	// Shape its transport (see internal/netem) to emulate a constrained
	// downstream path.
	HTTPClient *http.Client
	// Algorithm selects rates; a fresh per-session instance.
	Algorithm abr.Algorithm
	// Rmin applies the paper's footnote-3 promotion to this session.
	Rmin units.BitRate
	// BufferMax is the playback buffer capacity (default 240 s).
	BufferMax time.Duration
	// WatchLimit stops after this much delivered video; 0 plays the
	// whole title.
	WatchLimit time.Duration
	// Logf, when non-nil, receives per-chunk progress lines.
	Logf func(format string, args ...any)
	// Observer, when non-nil, receives the session's telemetry events
	// (At on the session clock). Nil costs nothing.
	Observer telemetry.Observer
}

// ErrChunkFailed reports a chunk that could not be fetched within the retry
// budget.
var ErrChunkFailed = errors.New("dash: chunk fetch failed")

// Stream runs a real-time HTTP streaming session: it fetches the manifest,
// then drives a player.Session — the simulator's own per-chunk loop — over
// the wall clock and a real HTTP connection: it sleeps the ON-OFF wait each
// Request asks for, fetches the chunk, and Delivers the byte count and the
// measured download time. It returns the same Result type as the
// virtual-time player, so all metrics helpers apply. Event times and
// Result.End are on the session clock (the waits plus the downloads, the
// clock the buffer is advanced on), and the buffered tail is accounted as
// watched without being slept through.
func Stream(ctx context.Context, cfg ClientConfig) (*player.Result, error) {
	if cfg.Algorithm == nil {
		return nil, errors.New("dash: nil algorithm")
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	endpoints := cfg.Endpoints
	if len(endpoints) == 0 {
		if cfg.BaseURL == "" {
			return nil, errors.New("dash: no endpoints")
		}
		endpoints = []string{cfg.BaseURL}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var (
		video *media.Video
		err   error
	)
	for _, base := range endpoints {
		if video, err = fetchManifest(ctx, httpc, base); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	stream := abr.NewStream(video, cfg.Rmin)

	var ss player.Session
	if err := ss.Start(player.Config{
		Algorithm:  cfg.Algorithm,
		Stream:     stream,
		BufferMax:  cfg.BufferMax,
		WatchLimit: cfg.WatchLimit,
		Observer:   cfg.Observer,
	}); err != nil {
		return nil, err
	}
	res := ss.Result()
	obs := cfg.Observer

	// The session clock stands still while a fetch is in flight, so retry
	// and failover events carry the time of the request they belong to.
	f := &fetcher{
		c:  httpc,
		es: newEndpointSet(endpoints),
		fp: cfg.Fetch.withDefaults(),
		onRetry: func(k, attempt int, backoff time.Duration) {
			res.Retries++
			if obs != nil {
				obs.OnEvent(telemetry.Event{
					Kind: telemetry.ChunkRetry, At: ss.Now(),
					Chunk: k, RateIndex: -1, PrevRateIndex: -1, Duration: backoff,
				})
			}
		},
		onFailover: func(from, to int, url string) {
			res.Failovers++
			logf("failover: endpoint %d -> %d (%s)", from, to, url)
			if obs != nil {
				obs.OnEvent(telemetry.Event{
					Kind: telemetry.Failover, At: ss.Now(),
					Chunk: -1, RateIndex: to, PrevRateIndex: from, Label: url,
				})
			}
		},
	}

	for {
		req, done := ss.Request()
		if done {
			return res, nil
		}
		if req.Wait > 0 {
			pace := time.NewTimer(req.Wait)
			select {
			case <-ctx.Done():
				pace.Stop()
				return nil, ctx.Err()
			case <-pace.C:
			}
		}
		start := time.Now()
		n, err := f.fetchChunk(ctx, stream.VideoIndex(req.RateIndex), req.Chunk, ss.Now())
		dl := time.Since(start)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			ss.Abandon(req)
			return res, nil
		}
		if _, err := ss.Deliver(req, n, dl); err != nil {
			return nil, err
		}
		logf("chunk %d: rate=%v bytes=%d dl=%v buffer=%v", req.Chunk, stream.Ladder()[req.RateIndex], n, dl.Round(time.Millisecond), ss.Buffer().Round(100*time.Millisecond))
	}
}

// get fetches url and returns its body, refusing anything but a 200 before
// reading and anything longer than limit after.
func get(ctx context.Context, c *http.Client, url string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dash: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dash: GET %s: status %s", url, resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("dash: GET %s: %w", url, err)
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("dash: GET %s: body exceeds %d bytes", url, limit)
	}
	return raw, nil
}

// fetchManifest fetches base's JSON manifest and returns the title it
// describes.
func fetchManifest(ctx context.Context, c *http.Client, base string) (*media.Video, error) {
	raw, err := get(ctx, c, base+"/manifest.json", 8<<20)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("dash: manifest decode: %w", err)
	}
	v, err := m.Video()
	if err != nil {
		return nil, fmt.Errorf("dash: bad manifest: %w", err)
	}
	return v, nil
}

// decodeManifest decodes a body that is exactly one JSON manifest, refusing
// unknown fields so manifest drift is caught early, and anything but white
// space after the value, so a truncated or concatenated body is not read as
// a title.
func decodeManifest(raw []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, err
	}
	if rest := bytes.TrimSpace(raw[dec.InputOffset():]); len(rest) > 0 {
		return m, fmt.Errorf("dash: manifest: %d bytes of trailing data after the JSON value: %.20q", len(rest), rest)
	}
	return m, nil
}

// fetcher downloads chunks under a FetchPolicy with endpoint failover.
type fetcher struct {
	c          *http.Client
	es         *endpointSet
	fp         FetchPolicy
	onRetry    func(k, attempt int, backoff time.Duration)
	onFailover func(from, to int, url string)
}

// fetchChunk downloads one chunk, retrying with deterministic backoff and
// failing over between endpoints, and returns the byte count. now is the
// session clock at issue; each attempt names itself to the origin at now
// plus the wall time the chunk's earlier attempts and backoffs took, as the
// simulator's fault loop advances its clock over failed attempts.
func (f *fetcher) fetchChunk(ctx context.Context, rate, k int, now time.Duration) (int64, error) {
	var lastErr error
	start := time.Now()
	for attempt := 0; attempt < f.fp.MaxAttempts; attempt++ {
		at := now
		if attempt > 0 {
			backoff := faults.Backoff(f.fp.BackoffBase, f.fp.BackoffCap, uint64(f.fp.Seed), k, attempt)
			if f.onRetry != nil {
				f.onRetry(k, attempt, backoff)
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(backoff):
			}
			at += time.Since(start)
		}
		_, base := f.es.current()
		n, err := f.try(ctx, fmt.Sprintf("%s/chunk/%d/%d?s=%d&a=%d&t=%d", base, rate, k, uint64(f.fp.Seed), attempt, at))
		if err == nil {
			if switched, from, to := f.es.success(); switched && f.onFailover != nil {
				f.onFailover(from, to, f.es.urls[to])
			}
			return n, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		lastErr = err
		if switched, from, to := f.es.failure(); switched && f.onFailover != nil {
			f.onFailover(from, to, f.es.urls[to])
		}
	}
	return 0, fmt.Errorf("%w: chunk %d/%d after %d attempts: %v", ErrChunkFailed, rate, k, f.fp.MaxAttempts, lastErr)
}

// try performs a single attempt at url under the per-chunk timeout.
func (f *fetcher) try(ctx context.Context, url string) (int64, error) {
	if f.fp.ChunkTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.fp.ChunkTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	return n, nil
}
