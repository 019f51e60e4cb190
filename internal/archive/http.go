package archive

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bba/internal/telemetry"
)

// QueryHandler serves a Store's query API over HTTP:
//
//	GET /runs   run names and storage stats
//	GET /query  archived events or rollups for one run
//
// /query parameters:
//
//	run       required; the run to query
//	kind      comma-separated kind names (chunk_complete,rebuffer_start,...)
//	session   exact session label
//	group     experiment group (session label suffix)
//	from_ns   inclusive lower bound on the session clock
//	to_ns     inclusive upper bound (0 or absent: unbounded)
//	agg       "1": return the per-group Rollup JSON instead of events
//	limit     cap on streamed events (default 100000; agg ignores it); an
//	          answer cut short by it carries the header X-Bba-Truncated: 1
//
// Events stream as canonical journal JSONL, one event per line, the same
// bytes bbaship journals locally — downstream tooling needs one parser.
type QueryHandler struct {
	Store *Store
}

// TruncatedHeader is set to "1" on a /query response that stopped at its
// limit with matching events still unsent.
const TruncatedHeader = "X-Bba-Truncated"

// Register mounts the handler's routes on mux.
func (h QueryHandler) Register(mux *http.ServeMux) {
	mux.HandleFunc("/runs", h.handleRuns)
	mux.HandleFunc("/query", h.handleQuery)
}

func (h QueryHandler) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.Store.Stats())
}

// parseQuery builds the archive Query from request parameters. A non-nil
// error is a client error (400).
func parseQuery(r *http.Request) (Query, error) {
	q := Query{
		Run:     r.FormValue("run"),
		Session: r.FormValue("session"),
		Group:   r.FormValue("group"),
	}
	if q.Run == "" {
		return q, errRunRequired()
	}
	if kinds := r.FormValue("kind"); kinds != "" {
		for _, name := range strings.Split(kinds, ",") {
			k, ok := telemetry.ParseKind(strings.TrimSpace(name))
			if !ok {
				return q, &badParamError{"kind", name}
			}
			q.Kinds = append(q.Kinds, k)
		}
	}
	for _, p := range []struct {
		name string
		dst  *time.Duration
	}{{"from_ns", &q.From}, {"to_ns", &q.To}} {
		if v := r.FormValue(p.name); v != "" {
			ns, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ns < 0 {
				return q, &badParamError{p.name, v}
			}
			*p.dst = time.Duration(ns)
		}
	}
	return q, nil
}

type badParamError struct{ name, value string }

func (e *badParamError) Error() string {
	return "archive: bad query parameter " + e.name + "=" + strconv.Quote(e.value)
}

func (h QueryHandler) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q, err := parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.FormValue("agg") == "1" {
		rollup, err := h.Store.Aggregate(q)
		if err != nil {
			h.queryError(w, q.Run, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rollup)
		return
	}
	limit := 100000
	if v := r.FormValue("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, (&badParamError{"limit", v}).Error(), http.StatusBadRequest)
			return
		}
		limit = n
	}
	// Buffer the scan before writing: a scan error after the first byte of
	// a 200 response would corrupt the stream. The scan runs on until a
	// match past the limit shows, so a cut answer is told from a whole one
	// that happens to hold exactly limit events.
	var buf []byte
	n, truncated := 0, false
	err = h.Store.Scan(q, func(e telemetry.Event) bool {
		if n == limit {
			truncated = true
			return false
		}
		buf = telemetry.AppendJSONL(buf, e)
		n++
		return true
	})
	if err != nil {
		h.queryError(w, q.Run, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if truncated {
		w.Header().Set(TruncatedHeader, "1")
	}
	w.Write(buf)
}

// queryError maps a query failure to a status: unknown run is the caller's
// mistake (404), anything else is the store's (500).
func (h QueryHandler) queryError(w http.ResponseWriter, run string, err error) {
	for _, known := range h.Store.Runs() {
		if known == run {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	http.Error(w, err.Error(), http.StatusNotFound)
}
