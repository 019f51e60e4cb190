package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/telemetry"
)

const (
	// ingestWindow bounds the un-ACKed frames per shipper: the loop is
	// closed, with a bounded window, so the shipper's 256-frame queue never
	// overflows and nothing is dropped.
	ingestWindow = 128
	// ingestFramesPerSecond sizes the timed phase: each shipper sends this
	// many 64-event frames per second of -seconds, whatever the machine's
	// speed, so N is fixed by the command line and store_bytes_per_event
	// compares across commits. At the ~180k events/s this box ingests, the
	// phase then lasts about -seconds.
	ingestFramesPerSecond = 1400
	// ingestSegmentFrames cuts the timed phase into windows of equal frame
	// count; the timings reported are the best decile's. A window is 65 536
	// events, the store's compaction threshold, so every window holds at
	// least one compaction: a shorter one could dodge them, and its best
	// decile would report an ingest that never compacts.
	ingestSegmentFrames = 1024
)

// ingestRun is a booted bbacollect with an empty store.
type ingestRun struct {
	e      *env
	c      *corpus
	d      *daemon
	store  string
	client *http.Client // for single-frame POSTs; the shippers bring their own
}

func setupIngest(e *env) (instance, error) {
	c, err := buildCorpus(e.seed)
	if err != nil {
		return nil, err
	}
	store, err := e.tempDir("collect")
	if err != nil {
		return nil, err
	}
	d, err := e.startDaemon("bbacollect", "-addr", "127.0.0.1:0", "-store", store)
	if err != nil {
		return nil, err
	}
	in := &ingestRun{e: e, c: c, d: d, store: store, client: &http.Client{Timeout: 10 * time.Second}}
	// Warm-up under its own run id, so the measured run's directory holds
	// only measured events.
	warm, err := in.shipper("warmup", 1)
	if err == nil {
		c.stream(0, 1, 64*frameEvents, map[string]*sent{}, warm.OnEvent)
		err = warm.Close()
	}
	if err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func (in *ingestRun) close() {
	in.client.CloseIdleConnections()
	in.d.kill()
}

// post sends one encoded frame and waits for its ACK.
func (in *ingestRun) post(frame []byte) error {
	resp, err := in.client.Post("http://"+in.d.addr+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("ingest answered %s", resp.Status)
	}
	return nil
}

// shipper opens one collect.Shipper on the HTTP lane with the default
// 64-event batches. The flush timer is off: the feeder hands over whole
// batches, and Close seals the last one.
func (in *ingestRun) shipper(run string, session uint64) (*collect.Shipper, error) {
	return collect.NewShipper(collect.ShipperConfig{
		Addr: "http://" + in.d.addr, Run: run, Session: session, FlushInterval: -1,
	})
}

// feed pushes lane's share of the corpus through s, a batch at a time,
// never running more than ingestWindow frames ahead of the ACKs nor more
// than two batches ahead of the framer (the shipper has four batch buffers
// and drops rather than blocks).
func (in *ingestRun) feed(s *collect.Shipper, lane, lanes, events int, want map[string]*sent, stop *atomic.Bool) {
	fed, inBatch := int64(0), 0
	in.c.stream(lane, lanes, events, want, func(e telemetry.Event) {
		if inBatch == 0 {
			for !stop.Load() {
				st := s.Stats()
				if fed-st.Queue.Pushed <= 2 && fed-st.FramesShipped < ingestWindow {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		if stop.Load() {
			return
		}
		s.OnEvent(e)
		if inBatch++; inBatch == frameEvents {
			fed, inBatch = fed+1, 0
		}
	})
}

// ingestMark is the ACK count and the daemon's CPU clock at a segment
// boundary.
type ingestMark struct {
	at      time.Time
	cpu     time.Duration
	shipped int64
}

// measure ships N corpus events through nproc shippers, one connection
// each, and stops the clock at the last ACK. op = one event.
func (in *ingestRun) measure(r *runResult) error {
	lanes := in.e.nproc
	perLane := int(float64(ingestFramesPerSecond)*in.e.seconds) * frameEvents
	if in.e.quick {
		perLane = 160 * frameEvents
	}
	frames := int64(lanes * perLane / frameEvents)
	// Lane k belongs to shipper k, so no two streams share a session label.
	want := make([]map[string]*sent, lanes)
	for k := range want {
		want[k] = map[string]*sent{}
	}
	shippers := make([]*collect.Shipper, lanes)
	for k := range shippers {
		s, err := in.shipper(storeRun, uint64(k+1))
		if err != nil {
			return err
		}
		defer s.Close()
		shippers[k] = s
	}

	// The feeders stop early when measure gives up, and measure waits for
	// them either way.
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()

	marks := []ingestMark{{time.Now(), in.d.cpu(), 0}}
	t0 := marks[0].at
	for k, s := range shippers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.feed(s, k, lanes, perLane, want[k], &stop)
		}()
	}
	// The monitor carries no load: it notes when the ACK count crosses each
	// segment boundary, and the daemon's CPU clock there.
	segFrames := int64(in.e.scale(ingestSegmentFrames, 80))
	for shipped := int64(0); shipped < frames; {
		shipped = 0
		for _, s := range shippers {
			st := s.Stats()
			shipped += st.FramesShipped
			if st.FramesDropped > 0 || st.EventsDropped > 0 {
				stop.Store(true)
				return fmt.Errorf("shipper dropped %d frames, %d events", st.FramesDropped, st.EventsDropped)
			}
		}
		if shipped-marks[len(marks)-1].shipped >= segFrames {
			marks = append(marks, ingestMark{time.Now(), in.d.cpu(), shipped})
		}
		if time.Since(t0) > 150*time.Second {
			stop.Store(true)
			return fmt.Errorf("only %d of %d frames ACKed after 150s", shipped, frames)
		}
		time.Sleep(time.Millisecond)
	}
	timed := time.Since(t0)
	wg.Wait()

	if len(marks) < 2 {
		return fmt.Errorf("%d frames do not fill one %d-frame segment; raise -seconds", frames, segFrames)
	}
	// The frames after the last whole segment are shipped and checked, but
	// belong to no window.
	var rates, cpuUS []float64
	for i := 1; i < len(marks); i++ {
		n := float64((marks[i].shipped - marks[i-1].shipped) * frameEvents)
		rates = append(rates, n/marks[i].at.Sub(marks[i-1].at).Seconds())
		cpuUS = append(cpuUS, float64((marks[i].cpu-marks[i-1].cpu).Nanoseconds())/1e3/n)
	}
	r.setWindowed("ingest_events_per_s", "1/s", rates, true)
	r.setWindowed("collector_cpu_us_per_event", "us", cpuUS, false)
	events := int64(lanes * perLane)
	r.info("ingest.events", "count", float64(events), 0)
	r.info("ingest.timed_s", "s", timed.Seconds(), 0)

	for k, s := range shippers {
		if err := s.Close(); err != nil {
			return fmt.Errorf("shipper %d: %w", k+1, err)
		}
		st := s.Stats()
		r.check(st.EventsDropped == 0 && st.FramesDropped == 0, "shipper %d dropped %d events, %d frames", k+1, st.EventsDropped, st.FramesDropped)
	}

	if err := r.setPeakRSS(in.d); err != nil {
		return err
	}
	// Exactly-once, ACKed ⊆ persisted: after a clean shutdown the store
	// must hold every session's events exactly as sent, and nothing else.
	if err := in.d.stop(); err != nil {
		return err
	}
	size, err := dirBytes(filepath.Join(in.store, storeRun))
	if err != nil {
		return err
	}
	r.set("store_bytes_per_event", "B", float64(size)/float64(events), int(events))
	r.Attempted += events
	sentAll := map[string]*sent{}
	for _, w := range want {
		for label, s := range w {
			sentAll[label] = s
		}
	}
	return in.readBack(r, sentAll, events)
}

// readBack scans the store the daemon left behind and holds every row
// against what was sent.
func (in *ingestRun) readBack(r *runResult, want map[string]*sent, events int64) error {
	ro, err := archive.OpenReadOnly(in.store)
	if err != nil {
		return err
	}
	defer ro.Close()
	var rows int64
	var bad error
	err = ro.Scan(archive.Query{Run: storeRun}, func(e telemetry.Event) bool {
		rows++
		bad = in.c.readBack(want, e)
		return bad == nil
	})
	if err != nil {
		return err
	}
	if bad == nil {
		bad = complete(want)
	}
	r.check(bad == nil, "read-back: %v", bad)
	r.check(rows == events, "store holds %d rows, %d events were ACKed", rows, events)

	// The per-session query path must agree with the full scan.
	for _, label := range sortedKeys(want)[:min(4, len(want))] {
		s := want[label]
		var got []telemetry.Event
		if err := ro.Scan(archive.Query{Run: storeRun, Session: label}, func(e telemetry.Event) bool {
			got = append(got, e)
			return true
		}); err != nil {
			return err
		}
		exp := make([]telemetry.Event, s.n)
		for i := range exp {
			exp[i] = in.c.base[s.j][i]
			exp[i].Session = label
		}
		err := sameEvents(got, exp)
		r.check(err == nil, "session scan %s: %v", label, err)
	}
	return nil
}
