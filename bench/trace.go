package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/batch"
	"bba/internal/campaign"
	"bba/internal/collect"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/player"
)

// runTraced is the traced run: reduced-scale versions of the five
// workloads with the span recorder on, then each layer's micro-
// measurements. It reports every per-layer metric whatever workload the
// driver names (the table is the union over the workloads, and most of it
// is fixed-input layer cost that no workload owns), writes the spans to
// bench/out/trace.json, and never reports an end-to-end metric: those are
// measured with the recorder off.
func runTraced(e *env, workload string) (*runResult, error) {
	if workload == "" {
		workload = "trace"
	} else if findWorkload(workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	r := newResult(workload, e)
	r.Traced = true
	rec := newRecorder()
	lb := &layerBench{e: e, r: r}

	// The traced workloads get fixed reduced sizes and at most a third of
	// -seconds; the micro-measurements share the rest evenly.
	lb.budget = time.Duration(e.seconds * 0.6 / 50 * float64(time.Second))
	if err := tracedScalar(e, rec, lb); err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlScalar, err)
	}
	if err := tracedBatch(e, rec, lb); err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlBatch, err)
	}
	// The daemon workloads run at -quick scale with the generator on one
	// core, exactly as their untraced runs do.
	quick := *e
	quick.quick = true
	if err := quick.buildDaemons("dashserver", "bbacollect"); err != nil {
		return nil, err
	}
	e.buildS = quick.buildS
	procs := runtime.GOMAXPROCS(1)
	unpin, err := quick.pinGenerator()
	if err == nil {
		if err = tracedOrigin(&quick, rec, lb); err == nil {
			err = tracedIngest(&quick, rec, lb)
		}
		unpin()
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	if err := tracedQuery(&quick, rec, lb); err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlQuery, err)
	}
	if err := lb.run(); err != nil {
		return nil, err
	}

	path := filepath.Join(e.outDir(), "trace.json")
	if err := writeTrace(path, rec); err != nil {
		return nil, err
	}
	r.info("trace.spans", "count", float64(len(rec.spans)), 0)
	r.info("build_s", "s", e.buildS, 0)
	r.Attempted += int64(len(rec.spans))
	for _, name := range layerNames {
		if _, ok := r.Metrics[name]; !ok {
			r.fail("per-layer metric %s was not measured", name)
		}
	}
	return r, nil
}

// capturingGroups wraps the standard arms so that the users campaign.Run
// draws can be replayed: the factory of the first arm sees every draw
// once, in draw order, on the scalar engine at Parallelism 1. Names are
// unchanged, so the campaign's identity and report are too.
func capturingGroups(users *[]abtest.User) []abtest.Group {
	groups := abtest.StandardGroups()
	first := groups[0].New
	groups[0].New = func(u abtest.User) abr.Algorithm {
		*users = append(*users, u)
		return first(u)
	}
	return groups
}

func groupNames(groups []abtest.Group) []string {
	names := make([]string, len(groups))
	for i, g := range groups {
		names[i] = g.Name
	}
	return names
}

// scalarDraws is the reduced scale of the traced campaign workloads.
const scalarDraws, scalarShard = 512, 256

// playDraws is the scalar shard loop, rebuilt from the layers' public
// functions with a span around each call: for a paired draw DrawUser →
// NewSessionEnv → per arm PlayerConfig → Session.Start → Step× →
// FromResult → AddSession. It plays the users campaign.Run drew (so the
// sessions are the same), draws a fresh user per draw only to time the
// draw, folds per shard through the public checkpoint like the campaign,
// and returns the report. With a nil recorder it is the untraced twin.
func playDraws(e *env, rec *recorder, users []abtest.User) (*campaign.Report, error) {
	catalog, err := media.NewCatalog(24, media.DefaultLadder(), e.seed)
	if err != nil {
		return nil, err
	}
	groups := abtest.StandardGroups()
	names := groupNames(groups)
	cfg := campaign.Config{Seed: e.seed, Sessions: len(users), ShardSize: scalarShard}
	cp := campaign.NewCheckpoint(cfg.Identity())
	rng := rand.New(rand.NewSource(e.seed))
	var accums []*campaign.GroupAccum
	for i, u := range users {
		if i%scalarShard == 0 {
			accums = campaign.NewGroupAccums(names, 512)
		}
		req := int64(i)
		root := rec.begin("scalar.loop", -1, req)
		s := rec.begin("scalar.draw_user", root, req)
		abtest.DrawUser(abtest.PopulationConfig{}, u.Window, u.Day, rng)
		rec.end(s)
		s = rec.begin("scalar.session_env", root, req)
		env, err := abtest.NewSessionEnv(u, u.Pick(catalog), nil, 0)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		for gi, g := range groups {
			s = rec.begin("scalar.player_config", root, req)
			pc := env.PlayerConfig(g)
			rec.end(s)
			var ss player.Session
			s = rec.begin("scalar.start", root, req)
			err := ss.Start(pc)
			rec.end(s)
			if err != nil {
				return nil, err
			}
			s = rec.begin("scalar.steps", root, req)
			steps := int64(0)
			for done := false; !done; steps++ {
				if done, err = ss.Step(); err != nil {
					return nil, err
				}
			}
			rec.end(s)
			rec.count("scalar.steps", steps)
			s = rec.begin("scalar.from_result", root, req)
			ms := metrics.FromResult(ss.Result(), u.Window, u.Day)
			rec.end(s)
			s = rec.begin("scalar.add_session", root, req)
			// The campaign's sample key: global draw index, then the arm.
			err = accums[gi].AddSession(uint64(i)<<8|uint64(gi), ms)
			rec.end(s)
			if err != nil {
				return nil, err
			}
		}
		rec.end(root)
		if (i+1)%scalarShard == 0 || i+1 == len(users) {
			if err := cp.Record(i/scalarShard, accums); err != nil {
				return nil, err
			}
		}
	}
	return campaign.FinalReport(cp)
}

// tracedScalar traces campaign-scalar at reduced scale. The spans must
// account for the wall time campaign.Run needs for the same sessions; what
// they do not cover is the runner's own overhead (worker pool, merge
// window, checkpoint fold).
func tracedScalar(e *env, rec *recorder, lb *layerBench) error {
	draws := scalarDraws
	var users []abtest.User
	cfg := campaign.Config{Seed: e.seed, Sessions: draws, ShardSize: scalarShard, Parallelism: 1, Groups: capturingGroups(&users)}
	// campaign.Run, the traced loop and the untraced loop take turns for
	// five rounds, and each is judged by its fastest round: the three are
	// compared with each other, so all three must be read in the same mode
	// of the machine, and the fast mode is the one every round can reach.
	runWall, tracedWall, plainWall := math.Inf(1), math.Inf(1), math.Inf(1)
	var want, got *campaign.Report
	var spans *recorder
	for round := 0; round < 5; round++ {
		users = users[:0]
		t0 := time.Now()
		out, err := campaign.Run(cfg)
		if err != nil {
			return err
		}
		runWall = min(runWall, time.Since(t0).Seconds())
		want = out.Report

		local := newRecorder()
		t0 = time.Now()
		if got, err = playDraws(e, local, users); err != nil {
			return err
		}
		if wall := time.Since(t0).Seconds(); wall < tracedWall {
			tracedWall, spans = wall, local // the fastest round's spans are kept
		}
		t0 = time.Now()
		if _, err := playDraws(e, nil, users); err != nil {
			return err
		}
		plainWall = min(plainWall, time.Since(t0).Seconds())
	}
	sessions := float64(draws * len(cfg.Groups))
	perSession := func(lt layerTime) float64 { return float64(lt.Self) / 1e3 / sessions }
	self := selfTimes(spans.spans)
	var covered float64
	for span, metric := range map[string]string{
		"scalar.draw_user": "span.scalar.draw_user_us", "scalar.session_env": "span.scalar.session_env_us",
		"scalar.player_config": "span.scalar.player_config_us", "scalar.start": "span.scalar.start_us",
		"scalar.steps": "span.scalar.steps_us", "scalar.from_result": "span.scalar.from_result_us",
		"scalar.add_session": "span.scalar.add_session_us", "scalar.loop": "span.scalar.loop_us",
	} {
		lb.set(metric, perSession(self[span]))
		covered += perSession(self[span])
	}
	// The spans' self times sum to the traced loop's wall time; scaled by
	// the tracing overhead they are the untraced cost of the same layers.
	overhead := tracedWall / plainWall
	lb.set("trace.overhead_ratio", overhead)
	lb.set("campaign.runner_overhead_ratio", 1-covered/overhead/(runWall*1e6/sessions))
	lb.r.info("trace.scalar_steps_per_session", "count", float64(spans.counts["scalar.steps"])/sessions, 0)
	rec.merge(spans)

	// 1 when the replay folded to exactly campaign.Run's report, so the
	// spans cover the very sessions the campaign ran; 0 when the campaign's
	// keying or fold changed and the coverage is only statistical.
	exact := 0.0
	if wantJS, err := reportJSON(want); err == nil {
		if gotJS, err := reportJSON(got); err == nil && bytes.Equal(wantJS, gotJS) {
			exact = 1
		}
	}
	lb.set("trace.replay_exact", exact)
	return nil
}

// tracedBatch traces campaign-batch-faults' engine: the kernel advances
// lanes in lock step, so from outside there are three spans per shard —
// RunShard itself (self time = the kernel: env, plan bind, steps) and its
// two callbacks, draw and fold.
func tracedBatch(e *env, rec *recorder, lb *layerBench) error {
	catalog, err := media.NewCatalog(24, media.DefaultLadder(), e.seed)
	if err != nil {
		return err
	}
	groups := abtest.StandardGroups()
	names := groupNames(groups)
	fc := faults.DefaultScheduleConfig()
	runner := batch.NewRunner(batch.Config{Groups: groups, Faults: &fc})
	draws := scalarDraws
	local := newRecorder()
	for shard := 0; shard < draws/scalarShard; shard++ {
		accums := campaign.NewGroupAccums(names, 512)
		req := int64(shard)
		root := local.begin("batch.kernel", -1, req)
		err := runner.RunShard(context.Background(), scalarShard,
			func(off int) (batch.Draw, error) {
				s := local.begin("batch.draw", root, req)
				defer local.end(s)
				i := shard*scalarShard + off
				u := abtest.DrawUser(abtest.PopulationConfig{}, i%12, i/12%3, abtest.SessionRNG(e.seed, i/12%3, i%12, i))
				return batch.Draw{User: u, Video: u.Pick(catalog), Fseed: e.seed + 1 + int64(i)}, nil
			},
			func(off int, ms []metrics.Session) error {
				s := local.begin("batch.fold", root, req)
				defer local.end(s)
				for gi := range ms {
					if err := accums[gi].AddSession(uint64(shard*scalarShard+off)<<8|uint64(gi), ms[gi]); err != nil {
						return err
					}
				}
				return nil
			})
		local.end(root)
		if err != nil {
			return err
		}
	}
	sessions := float64(draws * len(groups))
	self := selfTimes(local.spans)
	for span, metric := range map[string]string{
		"batch.kernel": "span.batch.kernel_us", "batch.draw": "span.batch.draw_us", "batch.fold": "span.batch.fold_us",
	} {
		lb.set(metric, float64(self[span].Self)/1e3/sessions)
	}
	rec.merge(local)
	return nil
}

// tracedOrigin traces origin-openloop at reduced length. A chunk's spans
// are cut from the timestamps the generator keeps anyway (intended start,
// sent, first byte, last byte), so tracing costs the generator nothing.
// It also runs what the gated run leaves out: the 1000 and 8000 req/s
// steps and the fresh-connection path.
func tracedOrigin(e *env, rec *recorder, lb *layerBench) error {
	inst, err := setupOrigin(e)
	if err != nil {
		return fmt.Errorf("traced %s: %w", wlOrigin, err)
	}
	defer inst.close()
	o := inst.(*originRun)
	chunks := rand.New(rand.NewSource(e.seed))
	step := func(rate float64, length time.Duration) ([]sample, error) {
		ss, err := o.g.run(intendedStarts(rate, int(rate*length.Seconds())), 0, chunks, nil)
		if err == nil && o.g.failed > 0 {
			err = fmt.Errorf("%d requests failed at %v req/s", o.g.failed, rate)
		}
		return ss, err
	}
	ss, err := step(originRate, time.Second)
	if err != nil {
		return err
	}
	local := newRecorder()
	at := func(d time.Duration) int64 { return int64(d) }
	for i, s := range ss {
		root := len(local.spans)
		local.spans = append(local.spans,
			span{Name: "origin.request", Start: at(s.intended), End: at(s.done), Parent: -1, Req: int64(i)},
			span{Name: "origin.queue", Start: at(s.intended), End: at(s.sent), Parent: root, Req: int64(i)},
			span{Name: "origin.first_byte", Start: at(s.sent), End: at(s.first), Parent: root, Req: int64(i)},
			span{Name: "origin.body", Start: at(s.first), End: at(s.done), Parent: root, Req: int64(i)})
	}
	self := selfTimes(local.spans)
	for name, metric := range map[string]string{
		"origin.queue": "span.origin.queue_us", "origin.first_byte": "span.origin.first_byte_us", "origin.body": "span.origin.body_us",
	} {
		lb.set(metric, float64(self[name].Self)/1e3/float64(len(ss)))
	}
	rec.merge(local)

	lb.set("origin.ttfb_p99_ms", percentile(ttfbs(ss), 99))
	late := lateness(ss)
	lb.set("origin.gen_late_p50_ms", percentile(late, 50))
	lb.set("origin.gen_late_p99_ms", percentile(late, 99))
	for rate, metric := range map[float64]string{1000: "origin.ttfb_p50_ms.r1000", 8000: "origin.ttfb_p50_ms.r8000"} {
		ss, err := step(rate, time.Second)
		if err != nil {
			return err
		}
		lb.set(metric, percentile(ttfbs(ss), 50))
	}
	setup, err := connSetup(o.d.addr, o.g.sizes[0])
	if err != nil {
		return err
	}
	lb.set("origin.conn_setup_us", setup)
	return nil
}

// tracedIngest traces fleet-ingest's frame path against the live daemon:
// AppendFrame → POST → ACK, one frame in flight.
func tracedIngest(e *env, rec *recorder, lb *layerBench) error {
	inst, err := setupIngest(e)
	if err != nil {
		return fmt.Errorf("traced %s: %w", wlIngest, err)
	}
	defer inst.close()
	in := inst.(*ingestRun)
	local := newRecorder()
	payload := framePayload()
	var frame []byte
	const frames = 256
	for seq := 0; seq < frames; seq++ {
		root := local.begin("ingest.frame", -1, int64(seq))
		s := local.begin("ingest.encode", root, int64(seq))
		frame = collect.AppendFrame(frame[:0], collect.Frame{Run: storeRun, Session: 1, Seq: uint64(seq), Kind: collect.PayloadEvents, Payload: payload})
		local.end(s)
		s = local.begin("ingest.post_ack", root, int64(seq))
		err := in.post(frame)
		local.end(s)
		local.end(root)
		if err != nil {
			return err
		}
	}
	self := selfTimes(local.spans)
	lb.set("span.ingest.encode_us", float64(self["ingest.encode"].Self)/1e3/frames)
	lb.set("span.ingest.post_ack_us", float64(self["ingest.post_ack"].Self)/1e3/frames)
	rec.merge(local)
	return in.d.stop()
}

// tracedQuery traces archive-query's mix on a -quick-size store.
func tracedQuery(e *env, rec *recorder, lb *layerBench) error {
	if err := prepareQuery(e); err != nil {
		return err
	}
	inst, err := setupQuery(e)
	if err != nil {
		return err
	}
	defer inst.close()
	q := inst.(*queryRun)
	local := newRecorder()
	const reps = 5
	for rep := 0; rep < reps; rep++ {
		if _, err := q.mix(nil, local); err != nil {
			return err
		}
	}
	self := selfTimes(local.spans)
	for i, metric := range [4]string{"span.query.aggregate_ms", "span.query.scan_session_ms", "span.query.scan_kind_ms", "span.query.export_ms"} {
		lb.set(metric, float64(self[queryNames[i]].Self)/1e6/reps)
	}
	rec.merge(local)
	return nil
}
