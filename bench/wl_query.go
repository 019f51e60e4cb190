package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bba/internal/archive"
	"bba/internal/telemetry"
)

const (
	storeRun = "bench"
	// frameEvents is the batch every writer here uses: the shipper's
	// default 64-event frame, which is also what reaches Store.Append.
	frameEvents = 64
)

// queryStore is archive-query's input: a store directory of corpus events
// and the reference answers computed from the corpus while it was written.
type queryStore struct {
	dir    string
	events int

	ref       *rollup           // Q1
	label     string            // Q2: one seeded session label ...
	wantSess  []telemetry.Event // ... and the events sent under it
	wantKinds []telemetry.Event // Q3: every rebuffer_start/rebuffer_end, in order
	sum       journalSum        // Q4: checksum of the journal appended
}

// queryRun is the store opened read only.
type queryRun struct {
	e *env
	*queryStore
	ro *archive.Store
}

var rebufferKinds = []telemetry.Kind{telemetry.RebufferStart, telemetry.RebufferEnd}

// prepareQuery builds the store the way the collector does — Store.Append
// in 64-event batches, compaction as thresholds trip. The event threshold
// is set so the layout is the same for every seed: 17 sealed blocks of
// 61 440 events and a live WAL tail of 4 096 (the default thresholds give
// ~59k-event blocks and a tail of seed-dependent size, possibly empty).
//
// It runs once per run and off setup_s's clock: it is the workload's input,
// written through the path fleet-ingest measures, and its five seconds
// swing by a third with the sandbox's neighbours, which no pause dilutes.
func prepareQuery(e *env) error {
	c, err := buildCorpus(e.seed)
	if err != nil {
		return err
	}
	dir, err := e.tempDir("store")
	if err != nil {
		return err
	}
	q := &queryStore{dir: dir, events: e.scale(1<<20, 1<<14), ref: newRollup()}
	st, err := archive.Open(archive.Config{Dir: dir, CompactEvents: e.scale(61440, 3840), CompactBytes: 1 << 40})
	if err != nil {
		return err
	}
	want := map[string]*sent{}
	var batch []byte
	inBatch := 0
	var appendErr error
	flush := func() {
		if inBatch > 0 && appendErr == nil {
			q.sum.Write(batch)
			appendErr = st.Append(storeRun, batch)
		}
		batch, inBatch = batch[:0], 0
	}
	c.stream(0, 1, q.events, want, func(ev telemetry.Event) {
		q.ref.add(ev)
		if ev.Kind == telemetry.RebufferStart || ev.Kind == telemetry.RebufferEnd {
			q.wantKinds = append(q.wantKinds, ev)
		}
		batch = telemetry.AppendJSONL(batch, ev)
		if inBatch++; inBatch == frameEvents {
			flush()
		}
	})
	flush()
	if appendErr != nil {
		st.Close()
		return appendErr
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		return err
	}
	if len(stats) != 1 || stats[0].Blocks == 0 || stats[0].WALEvents == 0 {
		return fmt.Errorf("store layout %+v: want sealed blocks and a non-empty WAL tail", stats)
	}

	// Q2's session is drawn from the seed among the sessions written.
	g := rand.New(rand.NewSource(e.seed)).Intn(len(want))
	label, events := c.session(g)
	q.label = label
	for _, ev := range events[:want[label].n] {
		ev.Session = label
		q.wantSess = append(q.wantSess, ev)
	}
	e.store = q
	return nil
}

// setupQuery is what a reader of an existing store pays before its first
// timed query: it opens the prepared store read only and runs every query
// once, so the page cache holds the blocks.
func setupQuery(e *env) (instance, error) {
	ro, err := archive.OpenReadOnly(e.store.dir)
	if err != nil {
		return nil, err
	}
	q := &queryRun{e: e, queryStore: e.store, ro: ro}
	if _, err := q.mix(nil, nil); err != nil {
		ro.Close()
		return nil, err
	}
	return q, nil
}

func (q *queryRun) close() { q.ro.Close() }

// answers is what one pass of the query mix returned.
type answers struct {
	agg   archive.Rollup
	sess  []telemetry.Event
	kinds []telemetry.Event
	sum   journalSum
}

// queryNames label the mix's four queries in spans and errors.
var queryNames = [4]string{"query.aggregate", "query.scan_session", "query.scan_kind", "query.export"}

// mix runs Q1–Q4 once, appends each query's wall time to times[i] and
// records a span around each query when the run is traced.
func (q *queryRun) mix(times *[4][]float64, rec *recorder) (answers, error) {
	var a answers
	var err error
	steps := [4]func(){
		func() { a.agg, err = q.ro.Aggregate(archive.Query{Run: storeRun}) },
		func() { a.sess, err = q.scanSession() },
		func() {
			err = q.ro.Scan(archive.Query{Run: storeRun, Kinds: rebufferKinds}, func(e telemetry.Event) bool {
				a.kinds = append(a.kinds, e)
				return true
			})
		},
		func() { err = q.ro.Export(storeRun, &a.sum) },
	}
	for i, step := range steps {
		t0 := time.Now()
		s := rec.begin(queryNames[i], -1, int64(i))
		step()
		rec.end(s)
		if err != nil {
			return a, fmt.Errorf("%s: %w", queryNames[i], err)
		}
		if times != nil {
			times[i] = append(times[i], time.Since(t0).Seconds())
		}
	}
	return a, nil
}

// scanSession is Q2.
func (q *queryRun) scanSession() ([]telemetry.Event, error) {
	var got []telemetry.Event
	err := q.ro.Scan(archive.Query{Run: storeRun, Session: q.label}, func(e telemetry.Event) bool {
		got = append(got, e)
		return true
	})
	return got, err
}

func sameEvents(got, want []telemetry.Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("event %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// measure repeats the query mix until the run's seconds are spent (at
// least three times) and checks every answer against the reference. Each
// repetition is one window per query; the timings reported are the best
// decile's. op = one query answered; CPU and allocation are per event
// covered, every query covering the whole store.
func (q *queryRun) measure(r *runResult) error {
	var times [4][]float64
	var mem runtime.MemStats
	var allocated uint64
	covered := 4 * float64(q.events) // events one pass of the mix covers
	reps := 0
	deadline := time.Now().Add(time.Duration(q.e.seconds * float64(time.Second)))
	for ; reps < 3 || time.Now().Before(deadline); reps++ {
		runtime.ReadMemStats(&mem)
		alloc0 := mem.TotalAlloc
		a, err := q.mix(&times, nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&mem)
		allocated += mem.TotalAlloc - alloc0
		err = q.ref.equal(a.agg.Groups)
		r.check(err == nil && a.agg.Rows == int64(q.events), "Q1 aggregate over %d rows (want %d): %v", a.agg.Rows, q.events, err)
		err = sameEvents(a.sess, q.wantSess)
		r.check(err == nil, "Q2 scan of session %s: %v", q.label, err)
		// Q2 is the short query (one block in seventeen survives the footer
		// pruning), so it is run three more times: as many samples per second
		// spent as the other three get.
		for extra := 0; extra < 3; extra++ {
			t0 := time.Now()
			sess, err := q.scanSession()
			times[1] = append(times[1], time.Since(t0).Seconds())
			if err == nil {
				err = sameEvents(sess, q.wantSess)
			}
			r.check(err == nil, "Q2 scan of session %s: %v", q.label, err)
		}
		err = sameEvents(a.kinds, q.wantKinds)
		r.check(err == nil, "Q3 scan of rebuffer kinds: %v", err)
		r.check(a.sum == q.sum, "Q4 export is %d bytes crc %08x, journal appended was %d bytes crc %08x", a.sum.n, a.sum.crc, q.sum.n, q.sum.crc)
	}

	n := float64(q.events)
	perS := func(secs []float64, units float64) []float64 {
		out := make([]float64, len(secs))
		for i, s := range secs {
			out[i] = units / s
		}
		return out
	}
	scanMS := make([]float64, len(times[1]))
	for i, s := range times[1] {
		scanMS[i] = s * 1000
	}
	r.setWindowed("aggregate_events_per_s", "1/s", perS(times[0], n), true)
	r.setWindowed("scan_session_ms", "ms", scanMS, false)
	r.setWindowed("scan_kind_events_per_s", "1/s", perS(times[2], n), true)
	r.setWindowed("export_mb_per_s", "MB/s", perS(times[3], float64(q.sum.n)/1e6), true)
	r.set("query_alloc_bytes_per_event", "B", float64(allocated)/(float64(reps)*covered), reps)
	return nil
}
