package player

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// chunk is one downloaded chunk as its ChunkComplete event reports it: the
// per-chunk log the tests read, which the Result does not keep.
type chunk struct {
	Index       int
	RateIndex   int
	Rate        units.BitRate
	Bytes       int64
	Start       time.Duration
	Download    time.Duration
	Throughput  units.BitRate
	BufferAfter time.Duration
}

// chunkLog reads the per-chunk log out of a session's events.
func chunkLog(events []telemetry.Event) []chunk {
	var log []chunk
	for _, e := range events {
		if e.Kind != telemetry.ChunkComplete {
			continue
		}
		log = append(log, chunk{
			Index: e.Chunk, RateIndex: e.RateIndex, Rate: e.Rate, Bytes: e.Bytes,
			Start: e.At - e.Duration, Download: e.Duration,
			Throughput: e.Throughput, BufferAfter: e.Buffer,
		})
	}
	return log
}

// runLogged runs cfg with a capture behind any observer it already has and
// returns the result, its per-chunk log and every event.
func runLogged(t testing.TB, cfg Config) (*Result, []chunk, []telemetry.Event) {
	t.Helper()
	capture := &telemetry.Capture{}
	cfg.Observer = telemetry.Multi(cfg.Observer, capture)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, chunkLog(capture.Events), capture.Events
}

// metricNames labels the values metricsOf and referenceMetrics return.
var metricNames = [...]string{
	"ChunkCount", "AvgRateKbps", "SteadyAvgRateKbps", "StartupAvgRateKbps",
	"RebuffersPerPlayhour", "SwitchesPerPlayhour", "PlayHours",
}

func metricsOf(r *Result) [len(metricNames)]float64 {
	return [...]float64{
		float64(r.ChunkCount()), r.AvgRateKbps(), r.SteadyAvgRateKbps(), r.StartupAvgRateKbps(),
		r.RebuffersPerPlayhour(), r.SwitchesPerPlayhour(), r.PlayHours(),
	}
}

// referenceMetrics recomputes every metric from the session's events alone,
// with the loops the Result ran when it kept a record per chunk: rates from
// the chunk log, rebuffers from rebuffer_start, switches from consecutive
// rate indexes, play time from session_end.
func referenceMetrics(events []telemetry.Event) [len(metricNames)]float64 {
	log := chunkLog(events)
	var played time.Duration
	rebuffers := 0
	for _, e := range events {
		switch e.Kind {
		case telemetry.RebufferStart:
			rebuffers++
		case telemetry.SessionEnd:
			played = e.Played
		}
	}
	switches := 0
	for i := 1; i < len(log); i++ {
		if log[i].RateIndex != log[i-1].RateIndex {
			switches++
		}
	}
	var all, steady, startup mean
	for _, c := range log {
		all.add(c.Rate)
		if c.Start >= 2*time.Minute {
			steady.add(c.Rate)
		}
	}
	for _, c := range log {
		if c.Start >= time.Minute {
			break
		}
		startup.add(c.Rate)
	}
	perHour := func(n int) float64 {
		if played.Hours() == 0 {
			return 0
		}
		return float64(n) / played.Hours()
	}
	return [...]float64{
		float64(len(log)), all.value(), steady.value(), startup.value(),
		perHour(rebuffers),
		perHour(switches),
		played.Hours(),
	}
}

// mean averages chunk rates in kb/s, 0 over no chunks.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(r units.BitRate) { m.sum += r.Kilobits(); m.n++ }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// journalScenario is one (algorithm, weather, viewing) draw.
type journalScenario struct {
	seed   int64
	alg    string
	watch  time.Duration
	seeks  []Seek
	faulty bool
}

func (sc journalScenario) config(t *testing.T) Config {
	t.Helper()
	s := vbrStream(t, sc.seed, 900)
	tr := trace.Markov(trace.MarkovConfig{
		Base:      2500 * units.Kbps,
		Sigma:     trace.SigmaForQuartileRatio(4),
		MeanDwell: 15 * time.Second,
		Duration:  2 * time.Hour,
	}, rand.New(rand.NewSource(sc.seed^0x5eed)))
	alg, err := abr.New(sc.alg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: alg, Stream: s, Trace: tr, WatchLimit: sc.watch, Seeks: sc.seeks}
	if sc.faulty {
		sched := faults.GenerateSeeded(faults.DefaultScheduleConfig(), sc.seed)
		ftr, err := sched.ApplyToTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = ftr
		cfg.Injector = faults.NewSessionInjector(sched, sc.seed)
		cfg.Retry = RetryPolicy{Seed: sc.seed}
	}
	return cfg
}

// FuzzResultMatchesJournal pins the Result's rate record to the journal:
// every metric method is bit-identical to the same metric recomputed from
// the session's events, across algorithms, fault weather, watch limits and
// seeks — and again on a reused Session, whose record must start clean.
// The seeds are (seed, algorithm, watch limit in s with 0 the whole title,
// seek after s of play, seek target chunk with negative meaning no seek,
// fault weather).
func FuzzResultMatchesJournal(f *testing.F) {
	names := abr.Names()
	algIndex := func(name string) uint8 {
		for i, n := range names {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("algorithm %q not registered", name)
		return 0
	}
	f.Add(int64(1), algIndex("Control"), int64(0), int64(0), -1, false)
	f.Add(int64(2), algIndex("BBA-1"), int64(25*60), int64(0), -1, false)
	f.Add(int64(3), algIndex("BBA-2"), int64(40*60), int64(0), -1, true)
	f.Add(int64(4), algIndex("BBA-Others"), int64(60*60), int64(0), -1, false)
	f.Add(int64(5), algIndex("BOLA"), int64(0), int64(5*60), 600, false)
	f.Add(int64(6), algIndex("Hybrid"), int64(0), int64(0), -1, true)
	f.Add(int64(7), algIndex("SmoothThroughput"), int64(45), int64(0), -1, false)
	f.Fuzz(func(t *testing.T, seed int64, alg uint8, watchS, seekAfterS int64, seekTo int, faulty bool) {
		sc := journalScenario{
			seed:   seed,
			alg:    names[int(alg)%len(names)],
			watch:  time.Duration(uint64(watchS)%(2*3600)) * time.Second,
			faulty: faulty,
		}
		if seekTo >= 0 {
			sc.seeks = []Seek{{AfterPlayed: time.Duration(uint64(seekAfterS)%3600) * time.Second, ToChunk: seekTo % 900}}
		}
		res, log, events := runLogged(t, sc.config(t))
		want := referenceMetrics(events)
		check := func(what string, r *Result) {
			t.Helper()
			for i, got := range metricsOf(r) {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("%s: %s = %v, the journal gives %v", what, metricNames[i], got, want[i])
				}
			}
		}
		check("Run", res)
		for i := 0; i < min(res.ChunkCount(), len(log)); i++ {
			if got, want := res.ChunkRateKbps(i), log[i].Rate.Kilobits(); got != want {
				t.Fatalf("ChunkRateKbps(%d) = %v, the journal gives %v", i, got, want)
			}
		}

		// A Session that already played a session plays this one into the
		// same record.
		var ss Session
		for round := 0; round < 2; round++ {
			if err := ss.Start(sc.config(t)); err != nil {
				t.Fatal(err)
			}
			for done := false; !done; {
				var err error
				if done, err = ss.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("reused Session", ss.Result())
	})
}

// TestSessionReuseAllocates pins the arena contract of the reusable
// Session: once warm, re-running sessions must not allocate at all (the
// configured algorithm aside — RminAlways is stateless and
// allocation-free).
func TestSessionReuseAllocates(t *testing.T) {
	s := vbrStream(t, 11, 450)
	tr := trace.Markov(trace.MarkovConfig{
		Base:     3 * units.Mbps,
		Sigma:    trace.SigmaForQuartileRatio(3),
		Duration: time.Hour,
	}, rand.New(rand.NewSource(99)))
	cfg := Config{
		Algorithm:  abr.RminAlways{},
		Stream:     s,
		Trace:      tr,
		WatchLimit: 20 * time.Minute,
	}
	var ss Session
	runOnce := func() {
		if err := ss.Start(cfg); err != nil {
			t.Fatal(err)
		}
		for {
			done, err := ss.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
	}
	runOnce() // warm the arenas
	avg := testing.AllocsPerRun(50, runOnce)
	if avg != 0 {
		t.Errorf("warm Session re-run allocates %.1f times per session, want 0", avg)
	}
}
