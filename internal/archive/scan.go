package archive

import (
	"fmt"
	"slices"
	"time"

	"bba/internal/telemetry"
)

// Query selects archived events. Zero-valued fields match everything, so
// Query{Run: "r"} is "the whole run".
type Query struct {
	// Run is the run to query (required).
	Run string
	// Kinds restricts to these event kinds; empty matches all.
	Kinds []telemetry.Kind
	// Session restricts to one exact session label.
	Session string
	// Group restricts to sessions whose telemetry.GroupOfSession matches.
	Group string
	// From and To bound the session clock: events with From <= At are
	// matched, and — when To > 0 — only those with At <= To.
	From, To time.Duration
}

func errRunRequired() error { return fmt.Errorf("archive: Query.Run is required") }

// plan is a Query compiled once per Scan or Aggregate, so that no block,
// WAL line or row re-derives anything from it.
type plan struct {
	Query
	// kinds is the queried kind set, indexed by telemetry.Kind; allKinds
	// when the query names none.
	allKinds bool
	kinds    [256]bool
	// group is the one group a matching row can be in ("" for any): the
	// queried Group, else the queried Session's own. A footer lists groups,
	// not sessions, and every matching row's group is in that list.
	group string
}

func (q Query) compile() *plan {
	p := &plan{Query: q, allKinds: len(q.Kinds) == 0, group: q.Group}
	for _, k := range q.Kinds {
		p.kinds[k] = true
	}
	if p.group == "" && q.Session != "" {
		p.group = telemetry.GroupOfSession(q.Session)
	}
	return p
}

// matchesAt reports whether one event time passes the window predicate.
func (p *plan) matchesAt(atNS int64) bool {
	return atNS >= int64(p.From) && (p.To <= 0 || atNS <= int64(p.To))
}

func (p *plan) matchesKind(k telemetry.Kind) bool { return p.allKinds || p.kinds[k] }

func (p *plan) matchesSession(session string) bool {
	return (p.Session == "" || session == p.Session) &&
		(p.Group == "" || telemetry.GroupOfSession(session) == p.Group)
}

// matchesEvent is the row-at-a-time predicate of the WAL tail.
func (p *plan) matchesEvent(e *telemetry.Event) bool {
	return p.matchesAt(int64(e.At)) && p.matchesKind(e.Kind) && p.matchesSession(e.Session)
}

// prunes reports whether the footer alone proves no row can match: an
// empty block, a disjoint time window, no queried kind present, or no
// session of the group a match must be in.
func (p *plan) prunes(ft *footer) bool {
	if ft.Rows == 0 || ft.MaxAtNS < int64(p.From) || p.To > 0 && ft.MinAtNS > int64(p.To) {
		return true
	}
	if !p.allKinds && !slices.ContainsFunc(ft.Kinds, func(name string) bool {
		k, _ := telemetry.ParseKind(name) // unknown names are kind 0, as in the rows
		return p.kinds[k]
	}) {
		return true
	}
	return p.group != "" && !slices.Contains(ft.Groups, p.group)
}

// filter resolves p against the open block: the footer first, then one
// verdict per entry of the session and kind dictionaries, so that match is
// array indexing. ok is false when no row can match. The session page's
// entries are decoded before its row indexes and before any other page, so
// a block that lacks the queried session costs that one page read.
func (b *Block) filter(p *plan) (ok bool, err error) {
	if p.prunes(&b.ft) {
		return false, nil
	}
	rest, err := b.dictEntries(colSession)
	if err != nil {
		return false, err
	}
	sess := b.dicts[colSession].entries
	b.sessOK = sized(b.sessOK, len(sess))
	for i, s := range sess {
		b.sessOK[i] = p.matchesSession(s)
		ok = ok || b.sessOK[i]
	}
	if !ok {
		return false, nil
	}
	if err := b.dictRows(colSession, rest); err != nil {
		return false, err
	}
	if _, err := b.dict(colKind); err != nil {
		return false, err
	}
	b.kindOK = sized(b.kindOK, len(b.kinds))
	for i, k := range b.kinds {
		b.kindOK[i] = p.matchesKind(k)
	}
	b.plan, b.at = p, nil
	if p.From > 0 || p.To > 0 {
		b.at, err = b.Ints("at_ns")
	}
	return err == nil, err
}

// match reports whether row i passes the predicate filter resolved.
func (b *Block) match(i int) bool {
	return b.kindOK[b.dicts[colKind].rows[i]] && b.sessOK[b.dicts[colSession].rows[i]] &&
		(b.at == nil || b.plan.matchesAt(b.at[i]))
}

// prepareScan is Scan's work on a block, done by a worker: filter, then —
// once a first row matches, which b.first records — the label and integer
// columns. It reports false when no row matches.
func (b *Block) prepareScan(p *plan) (bool, error) {
	if ok, err := b.filter(p); !ok {
		return false, err
	}
	for i := 0; i < b.ft.Rows; i++ {
		if b.match(i) {
			b.first = i
			err := b.loadRows()
			return err == nil, err
		}
	}
	return false, nil
}

// scanRows hands fn every matching row of the block prepareScan accepted,
// reporting false when fn stopped the scan.
func (b *Block) scanRows(fn func(telemetry.Event) bool) bool {
	for i := b.first; i < b.ft.Rows; i++ {
		if b.match(i) && !fn(*b.event(i)) {
			return false
		}
	}
	return true
}

// Scan streams every matching event in admission order — sealed blocks
// first, then the live WAL tail — calling fn for each, always on the
// caller's goroutine and never concurrently, while worker readers may decode
// the blocks ahead of it (see walk). fn returning false stops the scan
// early; fn may query the same store. A block whose footer the store holds
// and excludes is not opened at all; the first query to visit a block reads
// its footer (header, trailer, footer: three small reads) for every later
// one. A block that lacks the queried session costs its session page, and
// the rest read only the pages the predicate needs until a first row
// matches. Events handed to fn are fn's to keep: their strings are copies —
// one per distinct value of a block dictionary or of the tail — never views
// of a buffer the scan goes on to reuse.
func (s *Store) Scan(q Query, fn func(telemetry.Event) bool) error {
	if q.Run == "" {
		return errRunRequired()
	}
	b := s.reader()
	defer s.release(b)
	if err := s.snapshot(q.Run, b); err != nil {
		return err
	}
	p := q.compile()
	more := true
	err := s.walk(b, p, func(blk *Block) (bool, error) {
		return blk.prepareScan(p)
	}, func(blk *Block) (bool, error) {
		more = blk.scanRows(fn)
		return more, nil
	})
	if err != nil || !more {
		return err
	}
	for _, line := range b.walLines {
		e, err := b.parseLine(line)
		if err != nil {
			return err
		}
		if p.matchesEvent(&e) && !fn(e) {
			return nil
		}
	}
	return nil
}

// parseLine parses one WAL-tail journal line, its strings interned through
// b.names: copies, never views of the WAL buffer the next query refills.
// Append admits no line ParseJSONL refuses, so one here is an error.
func (b *Block) parseLine(line []byte) (telemetry.Event, error) {
	e, ok := b.names.ParseJSONL(line)
	if !ok {
		return e, fmt.Errorf("archive: WAL line %q: %w", line, telemetry.ErrNotCanonical)
	}
	return e, nil
}
