// Command bbaquery queries the columnar fleet archive, either offline —
// straight off a block directory written by bbacollect -store, no daemon
// needed — or live, against a running collector's /query API.
//
// Offline (reads the directory read-only, safe beside a live daemon):
//
//	bbaquery -dir fleet.archive -runs
//	bbaquery -dir fleet.archive -run run-11 -group BBA-0 -agg
//	bbaquery -dir fleet.archive -run run-11 -kind rebuffer_start,rebuffer_end
//	bbaquery -dir fleet.archive -run run-11 -export > run-11.jsonl
//
// Live (HTTP against bbacollect):
//
//	bbaquery -url http://127.0.0.1:8406 -run run-11 -agg
//	bbaquery -url http://127.0.0.1:8406 -run run-11 -tail
//
// Events print as canonical journal JSONL — the same bytes bbaplay
// -journal writes locally — so output pipes into any existing journal tooling.
// Rollups and -runs print as JSON.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"bba/internal/archive"
	"bba/internal/obs"
	"bba/internal/telemetry"
)

type options struct {
	dir string // offline: block directory
	url string // live: collector base URL

	run     string
	kinds   string
	session string
	group   string
	fromNS  int64
	toNS    int64

	agg    bool
	export bool
	runs   bool
	tail   bool
	limit  int
}

func main() {
	var o options
	flag.StringVar(&o.dir, "dir", "", "query a columnar archive directory offline (bbacollect -store)")
	flag.StringVar(&o.url, "url", "", "query a live collector at this base URL instead")
	flag.StringVar(&o.run, "run", "", "run to query")
	flag.StringVar(&o.kinds, "kind", "", "comma-separated event kinds (chunk_complete,rebuffer_start,...)")
	flag.StringVar(&o.session, "session", "", "exact session label")
	flag.StringVar(&o.group, "group", "", "experiment group (session label suffix)")
	flag.Int64Var(&o.fromNS, "from", 0, "inclusive lower bound on the session clock, in ns")
	flag.Int64Var(&o.toNS, "to", 0, "inclusive upper bound in ns (0: unbounded)")
	flag.BoolVar(&o.agg, "agg", false, "print the per-group rollup instead of events")
	flag.BoolVar(&o.export, "export", false, "re-export the run's full admitted journal, byte-for-byte")
	flag.BoolVar(&o.runs, "runs", false, "list archived runs and storage stats")
	flag.BoolVar(&o.tail, "tail", false, "stream admitted batches live (-url only)")
	flag.IntVar(&o.limit, "limit", 100000, "cap on printed events")
	flag.Parse()

	obs.Main("bbaquery", func(ctx context.Context) error {
		return run(ctx, os.Stdout, os.Stderr, o)
	})
}

// run executes one query and writes the result to out; errw is told when
// -limit cut the answer short.
func run(ctx context.Context, out, errw io.Writer, o options) error {
	if (o.dir == "") == (o.url == "") {
		return errors.New("exactly one of -dir or -url is required")
	}
	if o.tail && o.url == "" {
		return errors.New("-tail needs a live collector (-url)")
	}
	if !o.runs && o.run == "" {
		return errors.New("-run is required (or -runs to list)")
	}
	if o.url != "" {
		return runLive(ctx, out, errw, o)
	}
	return runOffline(out, errw, o)
}

// warnTruncated says on errw that events matched beyond -limit: without it
// an answer of exactly -limit events and a cut one look the same.
func warnTruncated(errw io.Writer, o options) {
	fmt.Fprintf(errw, "bbaquery: output truncated at -limit %d\n", o.limit)
}

// query builds the archive query from the flags; kind names are validated
// here so both modes reject typos before touching the store.
func (o options) query() (archive.Query, error) {
	q := archive.Query{
		Run:     o.run,
		Session: o.session,
		Group:   o.group,
		From:    time.Duration(o.fromNS),
		To:      time.Duration(o.toNS),
	}
	if o.kinds != "" {
		for _, name := range strings.Split(o.kinds, ",") {
			k, ok := telemetry.ParseKind(strings.TrimSpace(name))
			if !ok {
				return q, fmt.Errorf("unknown kind %q", name)
			}
			q.Kinds = append(q.Kinds, k)
		}
	}
	return q, nil
}

// runOffline opens the block directory read-only and answers from it
// directly — pruning, scanning and aggregating exactly as the daemon does.
func runOffline(out, errw io.Writer, o options) error {
	st, err := archive.OpenReadOnly(o.dir)
	if err != nil {
		return err
	}
	defer st.Close()
	switch {
	case o.runs:
		return printJSON(out, st.Stats())
	case o.export:
		return st.Export(o.run, out)
	}
	q, err := o.query()
	if err != nil {
		return err
	}
	if o.agg {
		rollup, err := st.Aggregate(q)
		if err != nil {
			return err
		}
		return printJSON(out, rollup)
	}
	// One buffered writer, not a write(2) per event; its error is sticky, so
	// the Flush every path leaves by reports a failed Write too.
	bw := bufio.NewWriter(out)
	var line []byte
	n, truncated := 0, false
	err = st.Scan(q, func(e telemetry.Event) bool {
		if n == o.limit {
			truncated = true
			return false
		}
		n++
		line = telemetry.AppendJSONL(line[:0], e)
		_, werr := bw.Write(line)
		return werr == nil
	})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if truncated {
		warnTruncated(errw, o)
	}
	return err
}

// runLive translates the flags into the collector's /runs, /query or
// /tail endpoints and streams the response body to out.
func runLive(ctx context.Context, out, errw io.Writer, o options) error {
	if _, err := o.query(); err != nil { // validate kinds client-side
		return err
	}
	base := strings.TrimSuffix(o.url, "/")
	var target string
	switch {
	case o.runs:
		target = base + "/runs"
	case o.export:
		// The daemon streams canonical JSONL; an uncapped query is the
		// live equivalent of an export.
		target = base + "/query?" + o.params(1<<31-1).Encode()
	case o.tail:
		v := url.Values{}
		v.Set("run", o.run)
		target = base + "/tail?" + v.Encode()
	default:
		target = base + "/query?" + o.params(o.limit).Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", target, resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = io.Copy(out, resp.Body)
	if resp.Header.Get(archive.TruncatedHeader) != "" {
		warnTruncated(errw, o)
	}
	if o.tail && (errors.Is(err, context.Canceled) || ctx.Err() != nil) {
		return nil // interrupted tail is a clean exit
	}
	return err
}

// params renders the query flags as /query URL parameters.
func (o options) params(limit int) url.Values {
	v := url.Values{}
	v.Set("run", o.run)
	if o.kinds != "" {
		v.Set("kind", o.kinds)
	}
	if o.session != "" {
		v.Set("session", o.session)
	}
	if o.group != "" {
		v.Set("group", o.group)
	}
	if o.fromNS > 0 {
		v.Set("from_ns", strconv.FormatInt(o.fromNS, 10))
	}
	if o.toNS > 0 {
		v.Set("to_ns", strconv.FormatInt(o.toNS, 10))
	}
	if o.agg {
		v.Set("agg", "1")
	} else {
		v.Set("limit", strconv.Itoa(limit))
	}
	return v
}

func printJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
