package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/archive"
	"bba/internal/batch"
	"bba/internal/campaign"
	"bba/internal/collect"
	"bba/internal/coord"
	"bba/internal/dash"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/netem"
	"bba/internal/player"
	"bba/internal/stats"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// layerDef is one per-layer metric of the traced run: BENCHMARK.json's
// per_layer list, in the README's order. Names are <module>.<metric>.
type layerDef struct {
	Name   string
	Unit   string
	Higher bool
}

var layerDefs = []layerDef{
	{"abtest.draw_user_ns", "ns", false},
	{"abtest.session_env_ns", "ns", false},
	{"abtest.session_env_faulted_ns", "ns", false},
	{"trace.markov_synth_us", "us", false},
	{"trace.cursor_download_ns", "ns", false},
	{"abr.bba2_next_ns", "ns", false},
	{"abr.control_next_ns", "ns", false},
	{"abr.plan_build_us", "us", false},
	{"abr.plan_hit_ns", "ns", false},
	{"player.session_us", "us", false},
	{"player.session_allocs", "count", false},
	{"player.session_bytes", "B", false},
	{"player.start_ns", "ns", false},
	{"player.step_ns", "ns", false},
	{"player.session_observed_us", "us", false},
	{"batch.shard_us_per_session", "us", false},
	{"batch.shard_allocs_per_session", "count", false},
	{"faults.generate_us", "us", false},
	{"faults.apply_trace_us", "us", false},
	{"campaign.accum_add_ns", "ns", false},
	{"campaign.accum_merge_us", "us", false},
	{"campaign.report_ms", "ms", false},
	{"stats.dist_add_ns", "ns", false},
	{"campaign.runner_overhead_ratio", "ratio", false},
	{"campaign.parallel_speedup", "ratio", true},
	{"coord.tax_ratio", "ratio", true},
	{"telemetry.append_jsonl_ns", "ns", false},
	{"telemetry.parse_jsonl_ns", "ns", false},
	{"telemetry.prom_on_event_ns", "ns", false},
	{"netem.take_ns", "ns", false},
	{"dash.serve_chunk_ns", "ns", false},
	{"dash.serve_chunk_allocs", "count", false},
	{"dash.serve_chunk_top_us", "us", false},
	{"dash.manifest_ns", "ns", false},
	{"dash.stream_chunk_us", "us", false},
	{"origin.ttfb_p99_ms", "ms", false},
	{"origin.ttfb_p50_ms.r1000", "ms", false},
	{"origin.ttfb_p50_ms.r8000", "ms", false},
	{"origin.gen_late_p50_ms", "ms", false},
	{"origin.gen_late_p99_ms", "ms", false},
	{"origin.conn_setup_us", "us", false},
	{"collect.shipper_on_event_ns", "ns", false},
	{"collect.shipper_on_event_allocs", "count", false},
	{"collect.frame_encode_ns", "ns", false},
	{"collect.frame_decode_ns", "ns", false},
	{"collect.ingest_post_us", "us", false},
	{"collect.ingest_post_store_us", "us", false},
	{"collect.dup_reject_us", "us", false},
	{"archive.append_us_per_batch", "us", false},
	{"archive.compact_ms_per_block", "ms", false},
	{"archive.open_ms", "ms", false},
	{"archive.block_decode_ms", "ms", false},
	{"archive.aggregate_group_ms", "ms", false},
	{"archive.bytes_per_event", "B", false},
	{"trace.overhead_ratio", "ratio", false},
	{"trace.replay_exact", "count", true},
	// Span self time per operation, from the traced reduced-scale
	// workloads (trace.go): where one operation's wall time goes.
	{"span.scalar.draw_user_us", "us", false},
	{"span.scalar.session_env_us", "us", false},
	{"span.scalar.player_config_us", "us", false},
	{"span.scalar.start_us", "us", false},
	{"span.scalar.steps_us", "us", false},
	{"span.scalar.from_result_us", "us", false},
	{"span.scalar.add_session_us", "us", false},
	{"span.scalar.loop_us", "us", false},
	{"span.batch.kernel_us", "us", false},
	{"span.batch.draw_us", "us", false},
	{"span.batch.fold_us", "us", false},
	{"span.origin.queue_us", "us", false},
	{"span.origin.first_byte_us", "us", false},
	{"span.origin.body_us", "us", false},
	{"span.ingest.encode_us", "us", false},
	{"span.ingest.post_ack_us", "us", false},
	{"span.query.aggregate_ms", "ms", false},
	{"span.query.scan_session_ms", "ms", false},
	{"span.query.scan_kind_ms", "ms", false},
	{"span.query.export_ms", "ms", false},
}

var layerNames = func() []string {
	names := make([]string, len(layerDefs))
	for i, d := range layerDefs {
		names[i] = d.Name
	}
	return names
}()

func layerUnit(name string) string {
	for _, d := range layerDefs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: unlisted layer metric " + name)
}

// opStats is one micro-measurement: the median batch's time per operation
// and the mean allocations per operation over all timed batches.
type opStats struct {
	ns, allocs, bytes float64
}

// timeOp measures fn, which performs n operations per call. One untimed
// warm-up batch, then seven timed batches sized to fill the budget; the
// time is the median batch's, like every timed phase of the benchmark.
func timeOp(budget time.Duration, fn func(n int)) opStats {
	t0 := time.Now()
	fn(1)
	one := time.Since(t0)
	const batches = 7
	n := 1
	if one > 0 {
		n = int(budget / (batches + 1) / one)
	}
	if n < 1 {
		n = 1
	}
	fn(n) // warm-up at batch size
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, total := ms.Mallocs, ms.TotalAlloc
	per := make([]float64, batches)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	ops := float64(batches * n)
	return opStats{ns: median(per), allocs: float64(ms.Mallocs-mallocs) / ops, bytes: float64(ms.TotalAlloc-total) / ops}
}

// layerBench runs the per-layer micro-measurements: each calls one
// layer's public functions directly, from outside, on fixed inputs.
type layerBench struct {
	e      *env
	r      *runResult
	budget time.Duration // per measurement
}

func (lb *layerBench) set(name string, v float64) {
	lb.r.set(name, layerUnit(name), v, 0)
}

// sessionFixture is the fixed session every player-level measurement
// plays: an 18-minute BBA-2 session over a variable trace (the session
// bbabench and the root benchmark use).
type sessionFixture struct {
	video  *media.Video
	stream abr.Stream
	tr     *trace.Trace
}

func newSessionFixture() (*sessionFixture, error) {
	video, err := media.NewVBR(media.VBRConfig{Title: "bench", Ladder: media.DefaultLadder(), NumChunks: 450}, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	tr := trace.Markov(trace.MarkovConfig{Base: 4 * units.Mbps, Sigma: trace.SigmaForQuartileRatio(3), Duration: 30 * time.Minute}, rand.New(rand.NewSource(2)))
	return &sessionFixture{video: video, stream: abr.NewStream(video, 0), tr: tr}, nil
}

func (f *sessionFixture) config(alg abr.Algorithm) player.Config {
	return player.Config{Algorithm: alg, Stream: f.stream, Trace: f.tr, WatchLimit: 18 * time.Minute}
}

// recordingAlg notes every State its inner algorithm is asked about, so the
// decisions of a real session can be replayed in a tight loop.
type recordingAlg struct {
	abr.Algorithm
	states []abr.State
}

func (r *recordingAlg) Next(st abr.State, s abr.Stream) int {
	r.states = append(r.states, st)
	return r.Algorithm.Next(st, s)
}

// must panics on a fixture error: the inputs are fixed, so an error is a
// bug in the benchmark or an API change, and the traced run reports it.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// run executes every micro-measurement; a panic in one (an API that
// changed under the benchmark) is returned as an error.
func (lb *layerBench) run() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer measurement: %v", p)
		}
	}()
	lb.simulation()
	lb.campaignLayers()
	lb.telemetryAndNet()
	lb.dashLayers()
	lb.collectLayers()
	lb.archiveLayers()
	return nil
}

func (lb *layerBench) simulation() {
	fix, err := newSessionFixture()
	must(err)
	catalog, err := media.NewCatalog(24, media.DefaultLadder(), lb.e.seed)
	must(err)
	fc := faults.DefaultScheduleConfig()

	// abtest: one paired draw's shared work (a draw feeds six arms).
	rng := rand.New(rand.NewSource(lb.e.seed))
	var u abtest.User
	lb.set("abtest.draw_user_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			u = abtest.DrawUser(abtest.PopulationConfig{}, i%12, i/12%3, rng)
		}
	}).ns)
	video := u.Pick(catalog)
	lb.set("abtest.session_env_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := abtest.NewSessionEnv(u, video, nil, 0)
			must(err)
		}
	}).ns)
	lb.set("abtest.session_env_faulted_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := abtest.NewSessionEnv(u, video, &fc, int64(i))
			must(err)
		}
	}).ns)

	// trace
	lb.set("trace.markov_synth_us", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			trace.Markov(trace.MarkovConfig{Base: 4 * units.Mbps, Sigma: 1, Duration: 30 * time.Minute}, rng)
		}
	}).ns/1e3)
	cur := fix.tr.Cursor()
	now := time.Duration(0)
	lb.set("trace.cursor_download_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			d, ok := cur.DownloadTime(now, 1<<20)
			if !ok {
				panic("trace: transfer failed")
			}
			if now += d; now > fix.tr.Total()-time.Minute {
				now = 0
				cur = fix.tr.Cursor()
			}
		}
	}).ns)

	// abr: replay the decisions of the fixed session against a fresh
	// instance, so the cost is per decision and free of the player's.
	for _, c := range []struct {
		metric string
		fresh  func() abr.Algorithm
	}{
		{"abr.bba2_next_ns", func() abr.Algorithm { return abr.NewBBA2() }},
		{"abr.control_next_ns", func() abr.Algorithm { return abr.NewControl() }},
	} {
		rec := &recordingAlg{Algorithm: c.fresh()}
		_, err := player.Run(fix.config(rec))
		must(err)
		lb.set(c.metric, timeOp(lb.budget, func(n int) {
			for i := 0; i < n; i++ {
				alg := c.fresh()
				for _, st := range rec.states {
					alg.Next(st, fix.stream)
				}
			}
		}).ns/float64(len(rec.states)))
	}
	lb.set("abr.plan_build_us", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			abr.NewPlanCache().TitlePlan(fix.stream, 0)
		}
	}).ns/1e3)
	plans := abr.NewPlanCache()
	lb.set("abr.plan_hit_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			plans.TitlePlan(fix.stream, 0)
		}
	}).ns)

	// player
	st := timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := player.Run(fix.config(abr.NewBBA2()))
			must(err)
		}
	})
	lb.set("player.session_us", st.ns/1e3)
	lb.set("player.session_allocs", st.allocs)
	lb.set("player.session_bytes", st.bytes)
	events := 0
	lb.set("player.session_observed_us", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			cfg := fix.config(abr.NewBBA2())
			cfg.Observer = telemetry.Func(func(telemetry.Event) { events++ })
			_, err := player.Run(cfg)
			must(err)
		}
	}).ns/1e3)
	var ss player.Session
	lb.set("player.start_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			must(ss.Start(fix.config(abr.NewBBA2())))
		}
	}).ns)
	// Step per chunk: the step loops of whole sessions, Start off the clock.
	var stepNS, steps float64
	for stepNS < float64(lb.budget) {
		must(ss.Start(fix.config(abr.NewBBA2())))
		t0 := time.Now()
		for {
			done, err := ss.Step()
			must(err)
			steps++
			if done {
				break
			}
		}
		stepNS += float64(time.Since(t0))
	}
	lb.set("player.step_ns", stepNS/steps)

	// batch: 64 fixed draws through the kernel, six arms each.
	draws := make([]batch.Draw, 64)
	for i := range draws {
		du := abtest.DrawUser(abtest.PopulationConfig{}, i%12, 0, abtest.SessionRNG(lb.e.seed, 0, i%12, i))
		draws[i] = batch.Draw{User: du, Video: du.Pick(catalog)}
	}
	groups := abtest.StandardGroups()
	runner := batch.NewRunner(batch.Config{Groups: groups})
	shard := timeOp(lb.budget*2, func(n int) {
		for i := 0; i < n; i++ {
			must(runner.RunShard(context.Background(), len(draws),
				func(off int) (batch.Draw, error) { return draws[off], nil },
				func(int, []metrics.Session) error { return nil }))
		}
	})
	perShard := float64(len(draws) * len(groups))
	lb.set("batch.shard_us_per_session", shard.ns/1e3/perShard)
	lb.set("batch.shard_allocs_per_session", shard.allocs/perShard)

	// faults
	var sched *faults.Schedule
	lb.set("faults.generate_us", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			sched = faults.GenerateSeeded(fc, int64(i))
		}
	}).ns/1e3)
	lb.set("faults.apply_trace_us", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := sched.ApplyToTrace(u.Trace)
			must(err)
		}
	}).ns/1e3)
}

// randomSession is a plausible metrics.Session for the fold measurements.
func randomSession(rng *rand.Rand) metrics.Session {
	return metrics.Session{
		PlayHours: 0.1 + rng.Float64(), Rebuffers: rng.Intn(4), Switches: rng.Intn(20),
		AvgRateKbps: 500 + 3000*rng.Float64(), SteadyRateKbps: 500 + 3000*rng.Float64(), SteadyReached: true,
		StartupRateKbps: 300 + 2000*rng.Float64(), QoE: rng.Float64(),
	}
}

func (lb *layerBench) campaignLayers() {
	rng := rand.New(rand.NewSource(lb.e.seed))
	sessions := make([]metrics.Session, 4096)
	for i := range sessions {
		sessions[i] = randomSession(rng)
	}
	acc := campaign.NewGroupAccum("g", 512)
	key := uint64(0)
	lb.set("campaign.accum_add_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			must(acc.AddSession(key, sessions[key%uint64(len(sessions))]))
			key++
		}
	}).ns)
	dist := stats.NewDist(512)
	lb.set("stats.dist_add_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			must(dist.Add(sessions[key%uint64(len(sessions))].AvgRateKbps, key))
			key++
		}
	}).ns)

	// Merge and report over full sketches: 16 shards of 1024 sessions each
	// (every sketch holds its 512 samples), folded through the public
	// checkpoint, which is the one merge path.
	names := []string{"Control", "BBA-2"}
	id := campaign.Identity{Sessions: 16 * 1024, ShardSize: 1024, Days: 3, CatalogSize: 24, SketchSize: 512, Groups: names}
	shards := make([][]*campaign.GroupAccum, id.Shards())
	for s := range shards {
		shards[s] = campaign.NewGroupAccums(names, 512)
		for i := 0; i < id.ShardSize; i++ {
			for _, a := range shards[s] {
				must(a.AddSession(key, sessions[key%uint64(len(sessions))]))
				key++
			}
		}
	}
	lb.set("campaign.accum_merge_us", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			prefix := campaign.NewGroupAccums(names, 512)
			for _, shard := range shards {
				for gi, a := range shard {
					must(prefix[gi].Merge(a))
				}
			}
		}
	}).ns/1e3/float64(len(shards)*len(names)))
	cp := campaign.NewCheckpoint(id)
	for s, accs := range shards {
		must(cp.Record(s, accs))
	}
	lb.set("campaign.report_ms", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := campaign.FinalReport(cp)
			must(err)
		}
	}).ns/1e6)

	// One worker against nproc, same 512 draws: informational, the cores
	// are shared with the neighbours.
	rate := func(cfg campaign.Config) float64 {
		var rates []float64
		for i := 0; i < 3; i++ {
			out, err := campaign.Run(cfg)
			must(err)
			rates = append(rates, out.Stats.SessionsPerSecond())
		}
		return median(rates)
	}
	draws := lb.e.scale(512, 64)
	one := rate(campaign.Config{Seed: lb.e.seed, Sessions: draws, ShardSize: 64, Parallelism: 1})
	lb.set("campaign.parallel_speedup", rate(campaign.Config{Seed: lb.e.seed, Sessions: draws, ShardSize: 64, Parallelism: lb.e.nproc})/one)

	// The fleet path: a coordinator and one in-process HTTP worker run the
	// same campaign; the ratio to campaign.Run is the control plane's tax.
	var fleet []float64
	for i := 0; i < 3; i++ {
		c, err := coord.New(coord.Config{Spec: coord.Spec{Seed: lb.e.seed, Sessions: draws, ShardSize: 64}, LeaseShards: 2})
		must(err)
		srv := httptest.NewServer(c.Handler())
		t0 := time.Now()
		ws, err := coord.RunWorker(context.Background(), coord.WorkerConfig{URL: srv.URL, Name: "bench", Parallelism: 1, Poll: time.Millisecond})
		wall := time.Since(t0)
		srv.Close()
		must(err)
		select {
		case <-c.Done():
		default:
			panic("coord: campaign incomplete")
		}
		fleet = append(fleet, float64(ws.PlayerSessions)/wall.Seconds())
	}
	lb.set("coord.tax_ratio", median(fleet)/one)
}

func (lb *layerBench) telemetryAndNet() {
	ev := telemetry.Event{
		Kind: telemetry.ChunkComplete, Session: "d0.w3.s17.BBA-2", At: 93 * time.Second, Chunk: 23,
		RateIndex: 4, PrevRateIndex: -1, Rate: 1750 * units.Kbps, Bytes: 871_236,
		Duration: 1830 * time.Millisecond, Throughput: 3800 * units.Kbps, Buffer: 41 * time.Second, Played: 52 * time.Second,
	}
	var buf []byte
	lb.set("telemetry.append_jsonl_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			buf = telemetry.AppendJSONL(buf[:0], ev)
		}
	}).ns)
	lb.set("telemetry.parse_jsonl_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := telemetry.ParseJSONL(buf); !ok {
				panic("telemetry: journal line does not parse")
			}
		}
	}).ns)
	prom := telemetry.NewProm("bench")
	lb.set("telemetry.prom_on_event_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			prom.OnEvent(ev)
		}
	}).ns)
	// An MTU-sized Take against a trace so fast the budget is always
	// covered: the shaper's bookkeeping, never its sleep.
	shaper := netem.NewShaper(trace.Constant(1000*units.Gbps, time.Hour))
	lb.set("netem.take_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			shaper.Take(1200)
		}
	}).ns)
}

// discardResponse throws handler output away: the handler's cost alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

func (lb *layerBench) dashLayers() {
	video, err := media.NewVBR(media.VBRConfig{
		Title: "bench", Ladder: media.DefaultLadder(), ChunkDuration: time.Second, NumChunks: 200,
	}, rand.New(rand.NewSource(lb.e.seed)))
	must(err)
	srv, err := dash.NewServer(video)
	must(err)
	serve := func(path string) opStats {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		return timeOp(lb.budget, func(n int) {
			for i := 0; i < n; i++ {
				var w discardResponse
				srv.ServeHTTP(&w, req)
			}
		})
	}
	chunk := serve("/chunk/0/3")
	lb.set("dash.serve_chunk_ns", chunk.ns)
	lb.set("dash.serve_chunk_allocs", chunk.allocs)
	lb.set("dash.serve_chunk_top_us", serve(fmt.Sprintf("/chunk/%d/3", len(video.Ladder)-1)).ns/1e3)
	lb.set("dash.manifest_ns", serve("/manifest.json").ns)

	// The client's per-chunk overhead: a whole dash.Stream session over
	// unshaped loopback. 200 one-second chunks fit the 240 s buffer, so the
	// client never paces and the time is all fetching.
	origin, err := dash.StartOrigin("127.0.0.1:0", srv, dash.OriginConfig{ShutdownGrace: time.Second})
	must(err)
	defer origin.Close(context.Background())
	var perChunk []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res, err := dash.Stream(context.Background(), dash.ClientConfig{BaseURL: origin.URL(), Algorithm: abr.NewBBA2()})
		must(err)
		perChunk = append(perChunk, float64(time.Since(t0).Microseconds())/float64(res.ChunkCount()))
	}
	lb.set("dash.stream_chunk_us", median(perChunk))
}

// framePayload is one 64-event batch of corpus-like journal lines.
func framePayload() []byte {
	var payload []byte
	for i := 0; i < frameEvents; i++ {
		payload = telemetry.AppendJSONL(payload, telemetry.Event{
			Kind: telemetry.ChunkComplete, Session: "d0.w3.s17.BBA-2", At: time.Duration(i) * 4 * time.Second, Chunk: i,
			RateIndex: 4, PrevRateIndex: -1, Rate: 1750 * units.Kbps, Bytes: 871_236,
			Duration: 1830 * time.Millisecond, Throughput: 3800 * units.Kbps, Buffer: 41 * time.Second,
		})
	}
	return payload
}

func (lb *layerBench) collectLayers() {
	payload := framePayload()

	// The shipper's player-visible hot path, against a collector that
	// accepts everything. A generous queue keeps capacity available.
	sink := httptest.NewServer(collect.NewCollector(collect.CollectorConfig{}).Handler())
	defer sink.Close()
	s, err := collect.NewShipper(collect.ShipperConfig{
		Addr: sink.URL, Run: "bench", Session: 1, FlushInterval: -1, Queue: collect.QueueConfig{MemFrames: 1 << 16},
	})
	must(err)
	ev := telemetry.Event{
		Kind: telemetry.BufferSample, Session: "d0.w0.s0.BBA-2", Chunk: 1, RateIndex: 2, PrevRateIndex: -1, Buffer: 12 * time.Second,
	}
	// A short budget: every event timed here is a frame Close must flush.
	on := timeOp(min(lb.budget, 10*time.Millisecond), func(n int) {
		for i := 0; i < n; i++ {
			s.OnEvent(ev)
		}
	})
	must(s.Close())
	lb.set("collect.shipper_on_event_ns", on.ns)
	lb.set("collect.shipper_on_event_allocs", on.allocs)

	var frame []byte
	seq := uint64(0)
	lb.set("collect.frame_encode_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			frame = collect.AppendFrame(frame[:0], collect.Frame{Run: "bench", Session: 1, Seq: seq, Kind: collect.PayloadEvents, Payload: payload})
			seq++
		}
	}).ns)
	lb.set("collect.frame_decode_ns", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, _, err := collect.DecodeFrame(frame)
			must(err)
		}
	}).ns)

	// POST /ingest over loopback to an in-process collector, without and
	// with a store behind it: the difference is the persistence gate.
	post := func(cfg collect.CollectorConfig) (fresh, dup float64) {
		srv := httptest.NewServer(collect.NewCollector(cfg).Handler())
		defer srv.Close()
		client := srv.Client()
		do := func(body []byte) {
			resp, err := client.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
			must(err)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				panic("collect: ingest answered " + resp.Status)
			}
		}
		seq := uint64(0)
		fresh = timeOp(lb.budget, func(n int) {
			for i := 0; i < n; i++ {
				frame = collect.AppendFrame(frame[:0], collect.Frame{Run: "bench", Session: 2, Seq: seq, Kind: collect.PayloadEvents, Payload: payload})
				seq++
				do(frame)
			}
		}).ns / 1e3
		// The last frame again: admitted once already, so rejected as a
		// duplicate (and ACKed) every time.
		dup = timeOp(lb.budget, func(n int) {
			for i := 0; i < n; i++ {
				do(frame)
			}
		}).ns / 1e3
		return fresh, dup
	}
	fresh, dup := post(collect.CollectorConfig{})
	lb.set("collect.ingest_post_us", fresh)
	lb.set("collect.dup_reject_us", dup)
	dir, err := lb.e.tempDir("layer-collect")
	must(err)
	st, err := archive.Open(archive.Config{Dir: dir})
	must(err)
	defer st.Close()
	stored, _ := post(collect.CollectorConfig{Archive: st})
	lb.set("collect.ingest_post_store_us", stored)
}

func (lb *layerBench) archiveLayers() {
	c, err := buildCorpus(lb.e.seed)
	must(err)
	// One block's worth of corpus events as 64-event journal batches.
	blockEvents := lb.e.scale(1<<16, 1<<13)
	var batches [][]byte
	var cur []byte
	inBatch := 0
	c.stream(0, 1, blockEvents, map[string]*sent{}, func(e telemetry.Event) {
		cur = telemetry.AppendJSONL(cur, e)
		if inBatch++; inBatch == frameEvents {
			batches = append(batches, cur)
			cur, inBatch = nil, 0
		}
	})
	dir, err := lb.e.tempDir("layer-archive")
	must(err)
	// Thresholds out of reach: Append is the WAL write and flush alone,
	// Compact is called when wanted.
	cfg := archive.Config{Dir: dir, CompactEvents: 1 << 30, CompactBytes: 1 << 40}
	st, err := archive.Open(cfg)
	must(err)

	var appendNS, compactMS []float64
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for _, b := range batches {
			must(st.Append(storeRun, b))
		}
		appendNS = append(appendNS, float64(time.Since(t0).Nanoseconds())/float64(len(batches)))
		t0 = time.Now()
		must(st.Compact(storeRun))
		compactMS = append(compactMS, float64(time.Since(t0).Microseconds())/1e3)
	}
	lb.set("archive.append_us_per_batch", median(appendNS)/1e3)
	lb.set("archive.compact_ms_per_block", median(compactMS))
	size, err := dirBytes(dir)
	must(err)
	lb.set("archive.bytes_per_event", float64(size)/float64(3*blockEvents))

	// Open with a WAL tail to recover (30k events at full scale).
	tail := len(batches) * 30000 / 65536
	for _, b := range batches[:tail] {
		must(st.Append(storeRun, b))
	}
	must(st.Close())
	var openMS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st, err = archive.Open(cfg)
		must(err)
		openMS = append(openMS, float64(time.Since(t0).Microseconds())/1e3)
		must(st.Close())
	}
	lb.set("archive.open_ms", median(openMS))

	blk, err := os.ReadFile(filepath.Join(dir, storeRun, "000001.blk"))
	must(err)
	lb.set("archive.block_decode_ms", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := archive.DecodeBlock(blk)
			must(err)
		}
	}).ns/1e6)
	ro, err := archive.OpenReadOnly(dir)
	must(err)
	defer ro.Close()
	lb.set("archive.aggregate_group_ms", timeOp(lb.budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := ro.Aggregate(archive.Query{Run: storeRun, Group: "BBA-2"})
			must(err)
		}
	}).ns/1e6)
}

// connSetup is the accept path: a fresh dial plus the first GET on it.
func connSetup(addr string, size int64) (float64, error) {
	var us []float64
	buf := make([]byte, 64<<10)
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		c, err := net.DialTimeout("tcp", addr, originTimeout)
		if err != nil {
			return 0, err
		}
		c.SetDeadline(time.Now().Add(originTimeout))
		if _, err := c.Write([]byte("GET /chunk/0/0 HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")); err != nil {
			c.Close()
			return 0, err
		}
		var got int64
		for {
			n, err := c.Read(buf)
			got += int64(n)
			if err != nil {
				break
			}
		}
		c.Close()
		if got < size {
			return 0, fmt.Errorf("fresh connection returned %d bytes, chunk is %d", got, size)
		}
		us = append(us, float64(time.Since(t0).Microseconds()))
	}
	return median(us), nil
}
