package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"bba/internal/campaign"
	"bba/internal/faults"
)

// campaignConfig is the configuration of one of the two campaign
// workloads: the paper's weekend A/B (six standard arms, 24 titles, sketch
// 512, every other field default) on one worker. The simulation workloads
// are the system under test and run in-process at Parallelism 1.
func campaignConfig(e *env, batch bool, sessions int) campaign.Config {
	cfg := campaign.Config{Seed: e.seed, Sessions: sessions, ShardSize: 256, Parallelism: 1}
	if batch {
		fc := faults.DefaultScheduleConfig()
		cfg.Batch, cfg.Faults, cfg.FaultSeed = true, &fc, e.seed+1
	}
	return cfg
}

// campaignSessions is the paired-draw count of one repetition.
func campaignSessions(e *env, batch bool) int {
	if batch {
		return e.scale(6144, 192)
	}
	return e.scale(4096, 128)
}

type campaignRun struct {
	e     *env
	batch bool
}

// reportJSON is the byte form the determinism contracts compare. Marshal
// fails on NaN or Inf, so a report that encodes has only finite statistics.
func reportJSON(report *campaign.Report) ([]byte, error) {
	if report == nil {
		return nil, fmt.Errorf("campaign did not complete")
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("report has a non-finite statistic: %w", err)
	}
	return buf.Bytes(), nil
}

// setupCampaign warms the process up with a 512-draw campaign of the same
// shape (code paged in, heap grown), and for the batch workload first
// requires that the two engines agree byte for byte under the workload's
// own seed and fault weather.
func setupCampaign(batch bool) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		warm := e.scale(512, 64)
		out, err := campaign.Run(campaignConfig(e, batch, warm))
		if err != nil {
			return nil, err
		}
		if batch {
			got, err := reportJSON(out.Report)
			if err != nil {
				return nil, err
			}
			cfg := campaignConfig(e, true, warm)
			cfg.Batch = false
			scalar, err := campaign.Run(cfg)
			if err != nil {
				return nil, err
			}
			want, err := reportJSON(scalar.Report)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, want) {
				return nil, fmt.Errorf("batch and scalar engines disagree on a %d-draw campaign (seed %d)", warm, e.seed)
			}
		}
		return &campaignRun{e: e, batch: batch}, nil
	}
}

func (c *campaignRun) close() {}

// measure repeats the campaign until the run's seconds are spent (at least
// three times). Every completed shard (256 paired draws, 1 536 player
// sessions, ~0.15 s) is one window, stamped by the campaign's own Progress
// hook; the timings reported are the best decile of the windows.
// op = one player session.
func (c *campaignRun) measure(r *runResult) error {
	sessions := campaignSessions(c.e, c.batch)
	cfg := campaignConfig(c.e, c.batch, sessions)
	var perS, cpuUS, allocKB []float64
	var at time.Time
	var cpu time.Duration
	var done int64
	cfg.Progress = func(p campaign.Progress) {
		now, cpuNow := time.Now(), selfCPU()
		n := float64(p.SessionsDone-done) * float64(len(p.Groups))
		perS = append(perS, n/now.Sub(at).Seconds())
		cpuUS = append(cpuUS, float64((cpuNow-cpu).Nanoseconds())/1e3/n)
		at, cpu, done = now, cpuNow, p.SessionsDone
	}
	var mem runtime.MemStats
	deadline := time.Now().Add(time.Duration(c.e.seconds * float64(time.Second)))
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		runtime.ReadMemStats(&mem)
		alloc0 := mem.TotalAlloc
		at, cpu, done = time.Now(), selfCPU(), 0
		out, err := campaign.Run(cfg)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&mem)
		allocKB = append(allocKB, float64(mem.TotalAlloc-alloc0)/1024/float64(out.Stats.PlayerSessions))

		r.Attempted += out.Stats.PlayerSessions
		js, err := reportJSON(out.Report)
		r.check(err == nil, "repetition %d: %v", rep, err)
		if err != nil {
			continue
		}
		for _, g := range out.Report.Groups {
			r.check(g.Sessions == int64(sessions), "repetition %d: group %s folded %d sessions, want %d", rep, g.Name, g.Sessions, sessions)
		}
		sum := sha256.Sum256(js)
		sha := hex.EncodeToString(sum[:])
		if r.ReportSHA == "" {
			r.ReportSHA = sha
		}
		r.check(sha == r.ReportSHA, "repetition %d: report differs from the first repetition's", rep)
	}
	r.setWindowed("sessions_per_s", "1/s", perS, true)
	r.setWindowed("cpu_us_per_session", "us", cpuUS, false)
	r.set("alloc_kb_per_session", "KB", median(allocKB), len(allocKB))
	return nil
}
