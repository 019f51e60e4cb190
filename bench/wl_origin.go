package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// The origin generator is one goroutine that owns every connection and
// busy-polls them with non-blocking reads. The Go runtime cannot pace an
// open loop at this rate: a sleeping goroutine wakes ~1 ms late (epoll's
// millisecond timeout) and a goroutine that yield-spins starves the
// network poller its neighbour is parked on. One polling loop has neither
// problem: it sends each request within microseconds of its intended
// start and sees each first byte within one loop turn, and it is the one
// load-carrying goroutine on the generator's one core.

// sample is one request as the generator saw it.
type sample struct {
	intended time.Duration // scheduled start, from the phase's start
	ready    time.Duration // intended, or later if the connection was still busy
	sent     time.Duration // when the request went out
	first    time.Duration // when the first response byte was read
	done     time.Duration // when the last body byte was read
	ok       bool
}

// originConn is one keep-alive connection and its in-flight request.
type originConn struct {
	c    *net.TCPConn
	raw  syscall.RawConn
	busy bool
	// due counts requests whose intended start has passed but which wait
	// for this connection's previous response: HTTP/1.1 has no pipelining.
	due  int
	next int           // index of this connection's next request in the schedule
	free time.Duration // when the previous response completed

	cur      sample
	curChunk int
	head     []byte // response bytes until the header ends
	status   int
	bodyLeft int64
	bodyLen  int64
}

// originGen drives chunk GETs for rung 0 of the booted title.
type originGen struct {
	addr  string
	sizes []int64 // body length of /chunk/0/<i>, from /manifest.json
	reqs  [][]byte
	conns []*originConn
	buf   []byte
	// rx and tx count every byte read from and written to the sockets.
	rx, tx int64
	failed int64
}

const originTimeout = 2 * time.Second

func newOriginGen(addr string, sizes []int64, conns int) (*originGen, error) {
	g := &originGen{addr: addr, sizes: sizes, buf: make([]byte, 64<<10)}
	for i := range sizes {
		g.reqs = append(g.reqs, []byte("GET /chunk/0/"+strconv.Itoa(i)+" HTTP/1.1\r\nHost: bench\r\n\r\n"))
	}
	for i := 0; i < conns; i++ {
		oc := &originConn{}
		if err := g.dial(oc); err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, oc)
	}
	return g, nil
}

func (g *originGen) dial(oc *originConn) error {
	c, err := net.DialTimeout("tcp", g.addr, originTimeout)
	if err != nil {
		return err
	}
	oc.c = c.(*net.TCPConn)
	oc.raw, err = oc.c.SyscallConn()
	oc.busy = false
	return err
}

func (g *originGen) close() {
	for _, oc := range g.conns {
		oc.c.Close()
	}
}

// send issues the connection's next request.
func (g *originGen) send(oc *originConn, chunk int, intended, now time.Duration) {
	oc.cur = sample{intended: intended, ready: max(intended, oc.free), sent: now}
	oc.curChunk = chunk
	oc.head, oc.status, oc.bodyLeft, oc.bodyLen = oc.head[:0], 0, 0, 0
	oc.busy = true
	// A failed write leaves a dead connection, which the next poll reports.
	n, _ := oc.c.Write(g.reqs[chunk])
	g.tx += int64(n)
}

// errAgain marks a read that found nothing yet.
var errAgain = errors.New("no data yet")

// poll reads what the socket holds without blocking and advances the
// response parser; done reports that the response is complete.
func (g *originGen) poll(oc *originConn, now time.Duration) (done bool, err error) {
	var n int
	var rerr error
	if cerr := oc.raw.Read(func(fd uintptr) bool {
		n, rerr = syscall.Read(int(fd), g.buf)
		return true // never park: the loop comes back
	}); cerr != nil {
		return false, cerr
	}
	switch {
	case rerr == syscall.EAGAIN || rerr == syscall.EINTR:
		return false, errAgain
	case rerr != nil:
		return false, rerr
	case n == 0:
		return false, io.ErrUnexpectedEOF
	}
	g.rx += int64(n)
	if oc.cur.first == 0 {
		oc.cur.first = now
	}
	data := g.buf[:n]
	if oc.status == 0 {
		oc.head = append(oc.head, data...)
		end := bytes.Index(oc.head, []byte("\r\n\r\n"))
		if end < 0 {
			if len(oc.head) > 16<<10 {
				return false, errors.New("response header over 16 KiB")
			}
			return false, nil
		}
		if oc.status, oc.bodyLen, err = parseHead(oc.head[:end]); err != nil {
			return false, err
		}
		oc.bodyLeft = oc.bodyLen
		data = oc.head[end+4:]
	}
	oc.bodyLeft -= int64(len(data))
	if oc.bodyLeft < 0 {
		return false, errors.New("body longer than Content-Length")
	}
	return oc.bodyLeft == 0, nil
}

// parseHead reads the status code and Content-Length of an HTTP/1.1
// response header.
func parseHead(head []byte) (status int, length int64, err error) {
	lines := bytes.Split(head, []byte("\r\n"))
	parts := bytes.SplitN(lines[0], []byte(" "), 3)
	if len(parts) < 2 || !bytes.HasPrefix(parts[0], []byte("HTTP/1.")) {
		return 0, 0, fmt.Errorf("status line %q", lines[0])
	}
	if status, err = strconv.Atoi(string(parts[1])); err != nil {
		return 0, 0, fmt.Errorf("status line %q", lines[0])
	}
	length = -1
	for _, l := range lines[1:] {
		k, v, ok := bytes.Cut(l, []byte(":"))
		if ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64); err != nil {
				return 0, 0, fmt.Errorf("header %q", l)
			}
		}
	}
	if length < 0 {
		return 0, 0, errors.New("response without Content-Length")
	}
	return status, length, nil
}

// intendedStarts is the open-loop schedule: request i is due at i/rate,
// whatever happened to the requests before it.
func intendedStarts(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// run drives one phase. With a schedule it is an open loop: request i
// goes to connection i mod n at schedule[i], or as soon after as that
// connection is free, and is timed from schedule[i]. Without (closed
// loop), every connection sends back to back until length has passed.
// chunks picks each request's chunk index. tick, when non-nil, is called
// with the count of finished requests at every multiple of originWindow
// and once more at the end: the window boundaries of the per-window CPU
// and throughput.
func (g *originGen) run(schedule []time.Duration, length time.Duration, chunks *rand.Rand, tick func(now time.Duration, finished int)) ([]sample, error) {
	closed := schedule == nil
	nc := len(g.conns)
	for i, oc := range g.conns {
		oc.due, oc.next, oc.free = 0, i, 0
	}
	var out []sample
	released, finished, total := 0, 0, len(schedule)
	nextTick := time.Duration(0)
	t0 := time.Now()
	if tick != nil {
		defer func() { tick(time.Since(t0), finished) }()
	}
	for {
		now := time.Since(t0)
		if tick != nil && now >= nextTick {
			tick(now, finished)
			nextTick += originWindow
		}
		if closed && now >= length {
			// Abandon what is in flight: the window is over.
			for _, oc := range g.conns {
				if oc.busy {
					if err := g.drain(oc); err != nil {
						return nil, err
					}
				}
			}
			return out, nil
		}
		if !closed && finished == total {
			return out, nil
		}
		for released < total && schedule[released] <= now {
			g.conns[released%nc].due++
			released++
		}
		idle := true
		for _, oc := range g.conns {
			if !oc.busy && (closed || oc.due > 0) {
				intended := now
				if !closed {
					intended = schedule[oc.next]
					oc.due--
					oc.next += nc
				}
				g.send(oc, chunks.Intn(len(g.sizes)), intended, now)
			}
			if !oc.busy {
				continue
			}
			idle = false
			done, err := g.poll(oc, now)
			if err == errAgain && now-oc.cur.sent > originTimeout {
				err = errors.New("timeout")
			}
			switch {
			case err == errAgain:
			case err != nil:
				// A failed request: counted, and the connection replaced.
				g.failed++
				oc.c.Close()
				if derr := g.dial(oc); derr != nil {
					return nil, fmt.Errorf("redial after %v: %w", err, derr)
				}
				oc.free = now
				out = append(out, oc.cur)
				finished++
			case done:
				oc.cur.done, oc.free = now, now
				oc.cur.ok = oc.status == http.StatusOK && oc.bodyLen == g.sizes[oc.curChunk]
				if !oc.cur.ok {
					g.failed++
				}
				oc.busy = false
				out = append(out, oc.cur)
				finished++
			}
		}
		// Between requests at a low rate there is nothing to poll: sleep
		// up to 2 ms short of the next start (a sleep overshoots by ~1 ms).
		if idle && !closed && released < total {
			if wait := schedule[released] - now - 2*time.Millisecond; wait > 0 {
				time.Sleep(wait)
			}
		}
	}
}

// drain finishes the in-flight response of a closed-loop window's end, so
// the connection is clean for the next window.
func (g *originGen) drain(oc *originConn) error {
	deadline := time.Now().Add(originTimeout)
	for time.Now().Before(deadline) {
		done, err := g.poll(oc, 1)
		if done {
			oc.busy = false
			return nil
		}
		if err != nil && err != errAgain {
			break
		}
	}
	oc.c.Close()
	return g.dial(oc)
}

// originRun is a booted dashserver and the generator's connections.
type originRun struct {
	e *env
	d *daemon
	g *originGen
}

func setupOrigin(e *env) (instance, error) {
	d, err := e.startDaemon("dashserver", "-addr", "127.0.0.1:0", "-chunks", "60", "-chunk-ms", "1000", "-seed", strconv.FormatInt(e.seed, 10))
	if err != nil {
		return nil, err
	}
	sizes, err := manifestSizes(d.addr)
	if err == nil {
		var g *originGen
		if g, err = newOriginGen(d.addr, sizes, e.nproc); err == nil {
			// Warm-up: connections accepted, handler paged in.
			if _, err = g.run(nil, 200*time.Millisecond, rand.New(rand.NewSource(e.seed)), nil); err == nil {
				g.failed = 0
				return &originRun{e: e, d: d, g: g}, nil
			}
			g.close()
		}
	}
	d.kill()
	return nil, err
}

// manifestSizes fetches rung 0's chunk sizes: the expected body lengths.
func manifestSizes(addr string) ([]int64, error) {
	resp, err := http.Get("http://" + addr + "/manifest.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		SizesBytes [][]int64 `json:"sizesBytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest.json: %w", err)
	}
	if len(m.SizesBytes) == 0 || len(m.SizesBytes[0]) == 0 {
		return nil, errors.New("manifest.json lists no chunk sizes")
	}
	return m.SizesBytes[0], nil
}

func (o *originRun) close() {
	o.g.close()
	o.d.kill()
}

const (
	originRate     = 4000 // requests/s of the gated open-loop phase
	originOpenPart = 0.6  // share of -seconds the open loop gets
	// originWindow cuts both phases into windows; the timings reported are
	// the best decile of the windows. The neighbours' interference flips
	// within tens of milliseconds on some days, so the windows are short
	// enough for some to be clean: at 25 ms a window still holds 100
	// requests of the open loop and ~1000 of the closed one.
	originWindow = 25 * time.Millisecond
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ttfbs returns the time to first byte of every request that was answered
// at all, counted from the intended start, ascending. A wrong answer still
// has a first byte; it is counted as a failed operation, not hidden here.
func ttfbs(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.first > 0 {
			out = append(out, ms(s.first-s.intended))
		}
	}
	return sorted(out)
}

// lateness is how long after it was due, and its connection free, each
// request went out: generator time, ascending, in ms.
func lateness(ss []sample) []float64 {
	late := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = ms(s.sent - s.ready)
	}
	return sorted(late)
}

// originMark is the daemon's CPU clock and the generator's progress at a
// window boundary.
type originMark struct {
	at       time.Duration
	cpu      time.Duration
	finished int
}

// marker returns a tick function that appends to marks.
func (o *originRun) marker(marks *[]originMark) func(time.Duration, int) {
	return func(now time.Duration, finished int) {
		*marks = append(*marks, originMark{now, o.d.cpu(), finished})
	}
}

// measure runs the open loop at originRate, then the closed loop.
// op = one chunk GET.
func (o *originRun) measure(r *runResult) error {
	rate := float64(o.e.scale(originRate, 500))
	openLen := time.Duration(o.e.seconds * originOpenPart * float64(time.Second)).Truncate(originWindow)
	n := int(rate * openLen.Seconds())
	chunks := rand.New(rand.NewSource(o.e.seed))

	var marks []originMark
	rx0, tx0 := o.g.rx, o.g.tx
	open, err := o.g.run(intendedStarts(rate, n), 0, chunks, o.marker(&marks))
	if err != nil {
		return err
	}
	wire := float64(o.g.rx-rx0+o.g.tx-tx0) / float64(len(open))

	// Windows are cut by intended start, so a stall stays in the window
	// whose requests it delayed.
	perWindow := make([][]sample, openLen/originWindow)
	for _, s := range open {
		w := min(int(s.intended/originWindow), len(perWindow)-1)
		perWindow[w] = append(perWindow[w], s)
	}
	var p50s, cpuUS []float64
	for _, w := range perWindow {
		if asc := ttfbs(w); len(asc) > 0 {
			p50s = append(p50s, percentile(asc, 50))
		}
	}
	for i := 1; i < len(marks); i++ {
		if reqs := marks[i].finished - marks[i-1].finished; float64(reqs) > rate*originWindow.Seconds()/2 {
			cpuUS = append(cpuUS, float64((marks[i].cpu-marks[i-1].cpu).Nanoseconds())/1e3/float64(reqs))
		}
	}
	if len(p50s) == 0 || len(cpuUS) == 0 {
		return errors.New("no window of the open loop completed")
	}
	r.setWindowed("ttfb_p50_ms", "ms", p50s, false)
	r.setWindowed("origin_cpu_us_per_req", "us", cpuUS, false)
	r.set("wire_bytes_per_req", "B", wire, len(open))
	reportOpenLoop(r, "origin", open)

	marks = marks[:0]
	closedLen := time.Duration(o.e.seconds * (1 - originOpenPart) * float64(time.Second)).Truncate(originWindow)
	closed, err := o.g.run(nil, closedLen, chunks, o.marker(&marks))
	if err != nil {
		return err
	}
	var rps []float64
	for i := 1; i < len(marks); i++ {
		if dt := marks[i].at - marks[i-1].at; dt > originWindow/2 {
			rps = append(rps, float64(marks[i].finished-marks[i-1].finished)/dt.Seconds())
		}
	}
	r.setWindowed("saturation_rps", "1/s", rps, true)

	r.Attempted += int64(len(open) + len(closed))
	if o.g.failed > 0 {
		r.failOps(o.g.failed, "%d requests failed (status, body length or timeout)", o.g.failed)
	}
	return r.setPeakRSS(o.d)
}

// reportOpenLoop adds what is reported but not gated: the TTFB tail, and
// how late the generator itself ran, which is generator time, not server
// time.
func reportOpenLoop(r *runResult, prefix string, ss []sample) {
	asc := ttfbs(ss)
	if p, ok := tailPercentile(len(asc)); ok {
		r.info(fmt.Sprintf("%s.ttfb_p%v_ms", prefix, p), "ms", percentile(asc, p), len(asc))
	}
	late := lateness(ss)
	r.info(prefix+".gen_late_p50_ms", "ms", percentile(late, 50), len(late))
	if p, ok := tailPercentile(len(late)); ok {
		r.info(fmt.Sprintf("%s.gen_late_p%v_ms", prefix, p), "ms", percentile(late, p), len(late))
	}
}
