package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bba/internal/telemetry"
)

var (
	fuzzGroups = []string{"BBA-0", "BBA-1", "Control"}
	fuzzKinds  = []telemetry.Kind{
		telemetry.SessionStart, telemetry.ChunkComplete, telemetry.RateSwitch, telemetry.RebufferStart,
		telemetry.RebufferEnd, telemetry.BufferSample, telemetry.SessionEnd, telemetry.ChunkRequest,
	}
)

// fuzzSession names one of eight sessions: seven spread over three groups
// and one label without a dot, which is its own group.
func fuzzSession(i int) string {
	if i%8 == 7 {
		return "solo"
	}
	return fmt.Sprintf("d0.w0.s%d.%s", i%8, fuzzGroups[i%8%len(fuzzGroups)])
}

// fuzzJournal renders one canonical journal line per input byte: the low
// three bits pick the session, the next three the kind. Sessions therefore
// interleave and straddle whatever block boundaries the store then cuts.
func fuzzJournal(data []byte) [][]byte {
	lines := make([][]byte, len(data))
	for i, b := range data {
		e := testEvent(i)
		e.Kind, e.Session = fuzzKinds[b>>3&7], fuzzSession(int(b))
		e.At = time.Duration(i/3) * time.Millisecond // ties, and a usable window
		lines[i] = telemetry.AppendJSONL(nil, e)
	}
	return lines
}

// foldEvent is the reference's parse of a journal line fuzzJournal rendered.
func foldEvent(t *testing.T, line []byte) telemetry.Event {
	t.Helper()
	e, ok := telemetry.ParseJSONL(line)
	if !ok {
		t.Fatalf("fuzzJournal rendered %q, which ParseJSONL refuses", line)
	}
	return e
}

// foldMatches is the reference predicate, written from Query's doc comment
// and sharing nothing with plan.
func foldMatches(q Query, e telemetry.Event) bool {
	if len(q.Kinds) > 0 {
		named := false
		for _, k := range q.Kinds {
			named = named || e.Kind == k
		}
		if !named {
			return false
		}
	}
	if q.Session != "" && e.Session != q.Session {
		return false
	}
	if q.Group != "" && telemetry.GroupOfSession(e.Session) != q.Group {
		return false
	}
	return e.At >= q.From && (q.To <= 0 || e.At <= q.To)
}

// foldRollup is the reference rollup: GroupRollup's doc comments applied
// one event at a time.
func foldRollup(events []telemetry.Event) map[string]GroupRollup {
	out := map[string]GroupRollup{}
	sessions := map[string]bool{}
	for _, e := range events {
		g := telemetry.GroupOfSession(e.Session)
		gr := out[g]
		gr.Group = g
		if !sessions[e.Session] {
			sessions[e.Session] = true
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
		out[g] = gr
	}
	return out
}

// FuzzQueryMatchesJournalFold is the archive's differential oracle: over
// fuzzed journals — sessions interleaved and split across block boundaries,
// blocks re-rendered in every page mode side by side, a live WAL tail when
// the cut leaves one — Scan and Aggregate under every predicate shape, and
// Export, must equal a row-by-row fold of the JSONL the store was
// fed: on the writing store, on a cold read-only view (no footer held yet),
// on a warm one, and on both after a further append and compaction — each at
// GOMAXPROCS 1 and 4, so by one worker reader and by several.
func FuzzQueryMatchesJournalFold(f *testing.F) {
	f.Add([]byte("\x00\x09\x12\x1b\x24\x2d\x36\x3f\xc0\xc9\xd2\xdb\x08\x10\x21\x31\x0a\x33\xe4\xed\xf6\xff\x01\x0b"), uint8(7), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte{0x09, 0x21, 0x19, 0x31, 0xca, 0x0a}, 40), uint8(47), uint8(16), uint8(9))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc}, uint8(1), uint8(1), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, compactEvents, batchLines, pick uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		// The journal opens with a line of its own, so the run exists even
		// when data is empty.
		lines := fuzzJournal(append([]byte{pick}, data...))
		dir := t.TempDir()
		// At least 16 events a block: every block is an fsync.
		s, err := Open(Config{Dir: dir, CompactEvents: 16 + int(compactEvents)%64})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var journal []byte
		var all []telemetry.Event
		for i := 0; i < len(lines); {
			var batch []byte
			for n := 0; n <= int(batchLines)%9 && i < len(lines); n, i = n+1, i+1 {
				batch = append(batch, lines[i]...)
				all = append(all, foldEvent(t, lines[i]))
			}
			if err := s.Append("r", batch); err != nil {
				t.Fatal(err)
			}
			journal = append(journal, batch...)
		}
		// Most blocks re-rendered with every column page in one mode, a
		// different one each, so the store's blocks read through every
		// predictor and coding and not only the one the encoder picks.
		blocks, err := filepath.Glob(filepath.Join(dir, "r", "*.blk"))
		if err != nil {
			t.Fatal(err)
		}
		for i, path := range blocks {
			m := mode(i+int(pick)) % (modes + 1)
			if m == modes {
				continue
			}
			blk, err := os.ReadFile(path)
			if err == nil {
				err = os.WriteFile(path, remode(t, blk, m), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		mid := time.Duration(len(data)/6) * time.Millisecond
		k1, k2 := fuzzKinds[pick&7], fuzzKinds[pick>>3&7]
		sess, group := fuzzSession(int(pick)), fuzzGroups[int(pick)%len(fuzzGroups)]
		queries := []Query{
			{},
			{Kinds: []telemetry.Kind{k1}},
			{Kinds: []telemetry.Kind{k1, k2}},
			{Session: sess},
			{Session: "d0.w0.s1.Nobody"},
			{Group: group},
			{Group: "solo"},
			{From: mid},
			{To: mid},
			{From: mid / 2, To: mid},
			{Session: sess, Kinds: []telemetry.Kind{k2}},
			{Group: group, Kinds: []telemetry.Kind{k1}, From: mid / 2},
			{Session: sess, Group: group, To: mid},
		}
		exports := func(view string, st *Store) {
			t.Helper()
			var got bytes.Buffer
			if err := st.Export("r", &got); err != nil {
				t.Fatalf("%s: Export: %v", view, err)
			}
			if !bytes.Equal(got.Bytes(), journal) {
				t.Fatalf("%s: Export is %d bytes, the journal fed in %d, and they differ", view, got.Len(), len(journal))
			}
		}
		answers := func(view string, st *Store, q Query) {
			t.Helper()
			q.Run = "r"
			var want []telemetry.Event
			for _, e := range all {
				if foldMatches(q, e) {
					want = append(want, e)
				}
			}
			var scanned []telemetry.Event
			if err := st.Scan(q, func(e telemetry.Event) bool { scanned = append(scanned, e); return true }); err != nil {
				t.Fatalf("%s: Scan %+v: %v", view, q, err)
			}
			if len(scanned) != len(want) {
				t.Fatalf("%s: Scan %+v returned %d events, the fold %d", view, q, len(scanned), len(want))
			}
			for i := range want {
				if scanned[i] != want[i] {
					t.Fatalf("%s: Scan %+v event %d:\n got %+v\nfold %+v", view, q, i, scanned[i], want[i])
				}
			}
			roll, err := st.Aggregate(q)
			if err != nil {
				t.Fatalf("%s: Aggregate %+v: %v", view, q, err)
			}
			ref := foldRollup(want)
			if len(roll.Groups) != len(ref) {
				t.Fatalf("%s: Aggregate %+v has %d groups, the fold %d", view, q, len(roll.Groups), len(ref))
			}
			for _, gr := range roll.Groups {
				if gr != ref[gr.Group] {
					t.Fatalf("%s: Aggregate %+v group %s:\n got %+v\nfold %+v", view, q, gr.Group, gr, ref[gr.Group])
				}
			}
		}
		// Every view is read at one worker and at up to four (see walk).
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		widths := [...]int{1, 4}
		check := func(view string, st *Store) {
			t.Helper()
			for _, procs := range widths {
				runtime.GOMAXPROCS(procs)
				at := fmt.Sprintf("%s at GOMAXPROCS %d", view, procs)
				exports(at, st)
				for _, q := range queries {
					answers(at, st, q)
				}
			}
		}
		// The writer holds the footers its compactions built, of blocks since
		// re-rendered: each open must notice the size and re-read.
		check("writer", s)
		// Cold: each query's Scan is the first over a fresh read-only view,
		// which reads each footer before it can prune on it.
		for _, procs := range widths {
			runtime.GOMAXPROCS(procs)
			for _, q := range queries {
				cold, err := OpenReadOnly(dir)
				if err != nil {
					t.Fatal(err)
				}
				answers(fmt.Sprintf("cold read-only at GOMAXPROCS %d", procs), cold, q)
				cold.Close()
			}
		}
		ro, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		check("read-only", ro)
		check("warm read-only", ro)
		// A further append and compaction: the warm view re-lists, keeps the
		// footers it holds and reads only the new block's.
		more := fuzzJournal(append([]byte{pick}, data...))[:1+len(data)%17]
		batch := bytes.Join(more, nil)
		if err := s.Append("r", batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact("r"); err != nil {
			t.Fatal(err)
		}
		journal = append(journal, batch...)
		for _, line := range more {
			all = append(all, foldEvent(t, line))
		}
		check("warm read-only after a compaction", ro)
		check("writer after a compaction", s)
	})
}
