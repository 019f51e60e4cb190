package archive

import (
	"sort"
	"strings"

	"bba/internal/telemetry"
)

// GroupRollup aggregates one experiment group's archived events: the
// paper's primary outcome (time spent rebuffering), the engagement and
// quality proxies (play time, delivered rate), and switching behaviour.
// All fields are integers so the JSON form is deterministic.
type GroupRollup struct {
	Group string `json:"group"`
	// Sessions counts distinct session labels seen in the group.
	Sessions int `json:"sessions"`
	// Events counts matched events of any kind.
	Events int64 `json:"events"`
	// Chunks and Bytes total over chunk_complete events.
	Chunks int64 `json:"chunks"`
	Bytes  int64 `json:"bytes"`
	// RateSumBps sums the delivered rate over chunk_complete events;
	// RateSumBps/Chunks is the average delivered videorate.
	RateSumBps int64 `json:"rate_sum_bps"`
	// Rebuffers counts rebuffer_start events; RebufferNS totals the stall
	// time reported by rebuffer_end events.
	Rebuffers  int64 `json:"rebuffers"`
	RebufferNS int64 `json:"rebuffer_ns"`
	// Switches counts rate_switch events; SwitchUp those that raised the
	// rate index.
	Switches int64 `json:"switches"`
	SwitchUp int64 `json:"switch_up"`
	// PlayedNS totals play time reported by session_end events.
	PlayedNS int64 `json:"played_ns"`
}

// Rollup is the result of Aggregate: per-group rollups plus run totals.
type Rollup struct {
	Run    string        `json:"run"`
	Blocks int           `json:"blocks"`
	Rows   int64         `json:"rows"`
	Groups []GroupRollup `json:"groups"`
}

// aggState accumulates a rollup across blocks and the WAL tail. The zero
// value is ready; a query's reader keeps one and resets it between queries,
// so its maps and table are grown once, not remade per query.
type aggState struct {
	groups map[string]*GroupRollup
	// seen holds the distinct session labels, shared across blocks so a
	// session split over a block boundary counts once.
	seen map[string]bool
	// groupOf is addBlock's dispatch table: the rollup of each
	// session-dictionary entry, entered when its first row matches.
	groupOf []*GroupRollup
}

// reset empties a for the next query, keeping what its maps have grown to.
func (a *aggState) reset() {
	clear(a.groups)
	clear(a.seen)
	clear(a.groupOf)
}

// enter returns the rollup of session's group, counting the session the
// first time any block or WAL line shows it. addBlock calls it once per
// dictionary entry, never per row.
func (a *aggState) enter(session string) *GroupRollup {
	if a.groups == nil {
		a.groups, a.seen = map[string]*GroupRollup{}, map[string]bool{}
	}
	g := telemetry.GroupOfSession(session)
	gr, ok := a.groups[g]
	if !ok {
		g = strings.Clone(g) // the result must not pin a block's dictionary
		gr = &GroupRollup{Group: g}
		a.groups[g] = gr
	}
	if !a.seen[session] {
		a.seen[session] = true
		gr.Sessions++
	}
	return gr
}

// addEvent folds one materialized event — the WAL-tail path.
func (a *aggState) addEvent(e *telemetry.Event) {
	gr := a.enter(e.Session)
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

// foldCols are the integer columns a rollup folds, of one prepared block;
// nil where no row the query keeps reads them.
type foldCols struct{ bytes, rate, dur, idx, prev, played []int64 }

// prepareFold is Aggregate's work on a block, done by a worker: filter, then
// the integer columns the kinds the block holds and the query keeps fold,
// and no others. It reports false when filter refused the block.
func (b *Block) prepareFold(p *plan) (bool, error) {
	if ok, err := b.filter(p); !ok {
		return false, err
	}
	var err error
	col := func(name string) []int64 {
		if err != nil {
			return nil
		}
		var c []int64
		c, err = b.Ints(name)
		return c
	}
	f := &b.fold
	*f = foldCols{}
	for ki, k := range b.kinds {
		if !b.kindOK[ki] {
			continue
		}
		switch k {
		case telemetry.ChunkComplete:
			f.bytes, f.rate = col("bytes"), col("rate_bps")
		case telemetry.RebufferEnd:
			f.dur = col("duration_ns")
		case telemetry.RateSwitch:
			f.idx, f.prev = col("rate_index"), col("prev_rate_index")
		case telemetry.SessionEnd:
			f.played = col("played_ns")
		}
	}
	return err == nil, err
}

// addBlock folds a block prepareFold accepted, column-wise: the row loop is
// array indexing over its slabs and the per-entry tables — no Event is
// built, no map consulted per row.
func (a *aggState) addBlock(b *Block) {
	// Locals, not b.fold's fields: the loop's stores through gr would make
	// the compiler reload every field's slice header on every row.
	bytesCol, rateCol, durCol := b.fold.bytes, b.fold.rate, b.fold.dur
	idxCol, prevCol, playedCol := b.fold.idx, b.fold.prev, b.fold.played
	kindRows, sess := b.dicts[colKind].rows, &b.dicts[colSession]
	a.groupOf = sized(a.groupOf, len(sess.entries))
	clear(a.groupOf)
	for i, si := range sess.rows {
		if !b.match(i) {
			continue
		}
		gr := a.groupOf[si]
		if gr == nil {
			gr = a.enter(sess.entries[si])
			a.groupOf[si] = gr
		}
		gr.Events++
		switch b.kinds[kindRows[i]] {
		case telemetry.ChunkComplete:
			gr.Chunks++
			gr.Bytes += bytesCol[i]
			gr.RateSumBps += rateCol[i]
		case telemetry.RebufferStart:
			gr.Rebuffers++
		case telemetry.RebufferEnd:
			gr.RebufferNS += durCol[i]
		case telemetry.RateSwitch:
			gr.Switches++
			if idxCol[i] > prevCol[i] {
				gr.SwitchUp++
			}
		case telemetry.SessionEnd:
			gr.PlayedNS += playedCol[i]
		}
	}
}

// Aggregate computes per-group rollups for q without materializing rows
// from blocks: blocks the footer or the session dictionary refuses are
// skipped, worker readers decode the others' fold columns (see walk), and
// the caller folds their slabs directly, in block order. The WAL tail folds
// row-wise. Rollup.Blocks and Rows count the blocks folded and their rows,
// plus every WAL line.
func (s *Store) Aggregate(q Query) (Rollup, error) {
	r := Rollup{Run: q.Run}
	if q.Run == "" {
		return r, errRunRequired()
	}
	b := s.reader()
	defer s.release(b)
	if err := s.snapshot(q.Run, b); err != nil {
		return r, err
	}
	p := q.compile()
	st := &b.agg
	err := s.walk(b, p, func(blk *Block) (bool, error) {
		return blk.prepareFold(p)
	}, func(blk *Block) (bool, error) {
		st.addBlock(blk)
		r.Blocks++
		r.Rows += int64(blk.Rows())
		return true, nil
	})
	if err != nil {
		return r, err
	}
	for _, line := range b.walLines {
		r.Rows++
		e, err := b.parseLine(line)
		if err != nil {
			return r, err
		}
		if p.matchesEvent(&e) {
			st.addEvent(&e)
		}
	}
	r.Groups = make([]GroupRollup, 0, len(st.groups))
	for _, gr := range st.groups {
		r.Groups = append(r.Groups, *gr)
	}
	sort.Slice(r.Groups, func(i, j int) bool { return r.Groups[i].Group < r.Groups[j].Group })
	return r, nil
}
