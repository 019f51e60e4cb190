package main

import (
	"fmt"
	"hash/crc32"

	"bba/internal/abtest"
	"bba/internal/archive"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
)

// corpus is the journal the fleet workloads ship and query: the events of
// real player sessions, replicated under distinct session labels. It has
// the kind mix of a real journal (requests, completions, samples, switches,
// rebuffers, fault retries), not one repeated event.
type corpus struct {
	base  [][]telemetry.Event // base[j]: one session's events, Session unset
	group []string            // base[j]'s experiment group
}

const (
	corpusSessions = 64
	// corpusStalled of them rebuffer at least once. Some three sessions in a
	// hundred do, so a seed's first 64 may hold none, and archive-query's
	// scan for rebuffer kinds would then be pruned away by the block footers
	// instead of decoding pages.
	corpusStalled = 8
)

// buildCorpus plays real sessions drawn from the workload seed — BBA-2 and
// Control alternating, fault weather on — with a capturing observer, and
// keeps the first corpusSessions that fill its quota: corpusStalled that
// rebuffer, the rest as they come. The same seed gives the same corpus.
func buildCorpus(seed int64) (*corpus, error) {
	catalog, err := media.NewCatalog(24, media.DefaultLadder(), seed)
	if err != nil {
		return nil, err
	}
	groups, err := abtest.Groups("BBA-2", "Control")
	if err != nil {
		return nil, err
	}
	fc := faults.DefaultScheduleConfig()
	c := &corpus{}
	stalled, plain := 0, 0
	for i := 0; len(c.base) < corpusSessions; i++ {
		if i == 100*corpusSessions {
			return nil, fmt.Errorf("corpus: %d sessions played, only %d rebuffered", i, stalled)
		}
		window, day := i%12, i/12%3
		u := abtest.DrawUser(abtest.PopulationConfig{}, window, day, abtest.SessionRNG(seed, day, window, i))
		env, err := abtest.NewSessionEnv(u, u.Pick(catalog), &fc, seed+int64(i))
		if err != nil {
			return nil, err
		}
		g := groups[i%len(groups)]
		pc := env.PlayerConfig(g)
		var capture telemetry.Capture
		pc.Observer = &capture
		if _, err := player.Run(pc); err != nil {
			return nil, fmt.Errorf("corpus session %d: %w", i, err)
		}
		rebuffers := false
		for _, e := range capture.Events {
			rebuffers = rebuffers || e.Kind == telemetry.RebufferStart
		}
		switch {
		case rebuffers && stalled < corpusStalled:
			stalled++
		case plain < corpusSessions-corpusStalled:
			plain++
		default:
			continue
		}
		c.base = append(c.base, capture.Events)
		c.group = append(c.group, g.Name)
	}
	return c, nil
}

// session g of the stream is replica g/len(base) of base session
// g%len(base), under a label in the A/B harness's form so that
// telemetry.GroupOfSession finds the group.
func (c *corpus) session(g int) (label string, events []telemetry.Event) {
	r, j := g/len(c.base), g%len(c.base)
	return fmt.Sprintf("d%d.w%d.s%d.%s", r%3, j%12, g, c.group[j]), c.base[j]
}

// sent records what one stream sent for one session label: the first n
// events of base session j, plus how far a read-back has matched so far.
type sent struct {
	j, n, seen int
}

// stream walks the sessions lane, lane+lanes, lane+2·lanes, … and yields
// exactly n events, each stamped with its session label; the last session
// is cut short. It records what was sent in want, for the read-back check.
func (c *corpus) stream(lane, lanes, n int, want map[string]*sent, yield func(telemetry.Event)) {
	for g := lane; n > 0; g += lanes {
		label, events := c.session(g)
		if len(events) > n {
			events = events[:n]
		}
		want[label] = &sent{j: g % len(c.base), n: len(events)}
		for _, e := range events {
			e.Session = label
			yield(e)
		}
		n -= len(events)
	}
}

// readBack checks a scanned event against what was sent: within a session
// the archive must return exactly the sent sequence, in order.
func (c *corpus) readBack(want map[string]*sent, e telemetry.Event) error {
	s := want[e.Session]
	if s == nil {
		return fmt.Errorf("archive holds an event of session %q, which was never sent", e.Session)
	}
	if s.seen >= s.n {
		return fmt.Errorf("session %s: archive holds more than the %d events sent", e.Session, s.n)
	}
	exp := c.base[s.j][s.seen]
	exp.Session = e.Session
	if e != exp {
		return fmt.Errorf("session %s event %d: archive has %+v, sent %+v", e.Session, s.seen, e, exp)
	}
	s.seen++
	return nil
}

// complete reports the first session whose read-back fell short.
func complete(want map[string]*sent) error {
	for label, s := range want {
		if s.seen != s.n {
			return fmt.Errorf("session %s: archive returned %d of the %d events sent", label, s.seen, s.n)
		}
	}
	return nil
}

// rollup is the row-by-row reference for archive.Aggregate: the same
// per-group sums, folded from the events themselves.
type rollup struct {
	groups map[string]*archive.GroupRollup
	seen   map[string]bool
}

func newRollup() *rollup {
	return &rollup{groups: map[string]*archive.GroupRollup{}, seen: map[string]bool{}}
}

func (r *rollup) add(e telemetry.Event) {
	g := telemetry.GroupOfSession(e.Session)
	gr := r.groups[g]
	if gr == nil {
		gr = &archive.GroupRollup{Group: g}
		r.groups[g] = gr
	}
	if !r.seen[e.Session] {
		r.seen[e.Session] = true
		gr.Sessions++
	}
	gr.Events++
	switch e.Kind {
	case telemetry.ChunkComplete:
		gr.Chunks++
		gr.Bytes += e.Bytes
		gr.RateSumBps += int64(e.Rate)
	case telemetry.RebufferStart:
		gr.Rebuffers++
	case telemetry.RebufferEnd:
		gr.RebufferNS += int64(e.Duration)
	case telemetry.RateSwitch:
		gr.Switches++
		if e.RateIndex > e.PrevRateIndex {
			gr.SwitchUp++
		}
	case telemetry.SessionEnd:
		gr.PlayedNS += int64(e.Played)
	}
}

// equal reports whether the archive's rollup matches the reference.
func (r *rollup) equal(got []archive.GroupRollup) error {
	if len(got) != len(r.groups) {
		return fmt.Errorf("aggregate has %d groups, reference %d", len(got), len(r.groups))
	}
	for _, g := range got {
		ref := r.groups[g.Group]
		if ref == nil || *ref != g {
			return fmt.Errorf("aggregate group %s = %+v, reference %+v", g.Group, g, ref)
		}
	}
	return nil
}

// journalSum is the checksum of a journal's bytes: CRC-32C (hardware
// speed, so hashing does not dominate a timed export) plus the length.
type journalSum struct {
	crc uint32
	n   int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write implements io.Writer, so an export can stream into the sum.
func (s *journalSum) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.n += int64(len(p))
	return len(p), nil
}
