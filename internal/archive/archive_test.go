package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bba/internal/telemetry"
	"bba/internal/units"
)

// testEvent fabricates a deterministic event: session i%sessions within
// one of two groups, kinds cycling through the rollup-relevant taxonomy.
func testEvent(i int) telemetry.Event {
	kinds := []telemetry.Kind{
		telemetry.SessionStart, telemetry.ChunkComplete, telemetry.ChunkComplete,
		telemetry.RateSwitch, telemetry.RebufferStart, telemetry.RebufferEnd,
		telemetry.BufferSample, telemetry.SessionEnd,
	}
	group := "BBA-0"
	if i%2 == 1 {
		group = "BBA-1"
	}
	return telemetry.Event{
		Kind:          kinds[i%len(kinds)],
		Session:       fmt.Sprintf("d0.w0.s%d.%s", i%7, group),
		At:            time.Duration(i) * time.Millisecond,
		Chunk:         i % 100,
		RateIndex:     i % 5,
		PrevRateIndex: (i + 1) % 5,
		Rate:          units.BitRate(1000*1000 + i),
		Bytes:         int64(1500 * i),
		Duration:      time.Duration(i%50) * time.Millisecond,
		Throughput:    units.BitRate(3 * 1000 * 1000),
		Buffer:        time.Duration(i%240) * time.Second,
		Played:        time.Duration(i) * time.Second,
		Reservoir:     90 * time.Second,
		Protection:    -time.Second,
		Label:         "BBA-0",
	}
}

// batchOf renders events [from, to) as one journal batch.
func batchOf(from, to int) []byte {
	var b []byte
	for i := from; i < to; i++ {
		b = telemetry.AppendJSONL(b, testEvent(i))
	}
	return b
}

// TestArchiveExportLossless pins the acceptance criterion: re-exporting an
// archive reproduces the admitted journal byte for byte, across multiple
// compactions and a live WAL tail. (What Append refuses, and that a refusal
// writes nothing, is TestAppendRefusesNonCanonical.)
func TestArchiveExportLossless(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	appendBatch := func(b []byte) {
		t.Helper()
		if err := s.Append("run1", b); err != nil {
			t.Fatal(err)
		}
		want.Write(b)
	}
	for i := 0; i < 300; i += 10 {
		appendBatch(batchOf(i, i+10))
	}
	appendBatch(batchOf(300, 305))

	exportIs(t, "live", s, "run1", want.Bytes())

	if err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	exportIs(t, "compacted", s, "run1", want.Bytes())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	exportIs(t, "reopened read-only", ro, "run1", want.Bytes())
	if err := ro.Append("run1", []byte("{}\n")); err != ErrReadOnly {
		t.Fatalf("read-only Append error = %v, want ErrReadOnly", err)
	}
}

// TestArchiveAppendValidation pins the Append contract edges.
func TestArchiveAppendValidation(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("r", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := s.Append("r", []byte("no newline")); !errors.Is(err, telemetry.ErrNotCanonical) {
		t.Fatalf("unterminated batch: %v, want ErrNotCanonical", err)
	}
	// A batch beyond the WAL record bound must be refused, not persisted:
	// scanWAL would discard the oversized record as a corrupt tail on the
	// next open, silently losing an acknowledged batch.
	big := make([]byte, maxWALRecord+1)
	big[len(big)-1] = '\n'
	if err := s.Append("r", big); err == nil {
		t.Fatal("batch beyond the WAL record limit accepted")
	}
}

// TestAppendPersistsBeforeReturn pins the ACK-gating contract at the
// file level: the batch must be on the WAL file — not parked in a
// userspace buffer — the moment Append returns nil, because that return
// is what lets the collector ACK the frame and the shipper drop its only
// other copy. The store is deliberately neither compacted nor closed:
// reading the file here is exactly what a crash right now would leave.
func TestAppendPersistsBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := batchOf(0, 10)
	if err := s.Append("run1", batch); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "run1", walFile(1)))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	n, err := scanWAL(data, func(tag byte, _, _ uint64, p []byte) error {
		if tag == recBatch {
			got = append(got, p...)
		}
		return nil
	})
	if err != nil || n != int64(len(data)) {
		t.Fatalf("WAL has %d unframed tail bytes after a clean Append (%v)", int64(len(data))-n, err)
	}
	if !bytes.Equal(got, batch) {
		t.Fatalf("WAL on disk holds %d payload bytes, want the acknowledged %d-byte batch", len(got), len(batch))
	}
}

// TestArchiveCrashRecovery corrupts the WAL tail mid-record and checks
// that reopening keeps the valid prefix, drops the torn suffix, and keeps
// accepting appends.
func TestArchiveCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	good := batchOf(0, 20)
	if err := s.Append("run1", good); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("run1", batchOf(20, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the second record: truncate the WAL ten bytes short.
	walPath := filepath.Join(dir, "run1", walFile(1))
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	s, err = Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tail := batchOf(40, 50)
	if err := s.Append("run1", tail); err != nil {
		t.Fatal(err)
	}
	exportIs(t, "recovered: the first batch, then the post-recovery one", s, "run1", append(append([]byte(nil), good...), tail...))
}

// exportIs fails the test unless st exports want for run.
func exportIs(t *testing.T, view string, st *Store, run string, want []byte) {
	t.Helper()
	var got bytes.Buffer
	if err := st.Export(run, &got); err != nil {
		t.Fatalf("%s: Export: %v", view, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: Export is %d bytes, want the %d admitted", view, got.Len(), len(want))
	}
}

// TestCompactionLeavesNoDouble reproduces the compaction window: a kill
// after a compaction's block rename but before its WAL was retired left the
// sealed batch in both forms, and the reopened store exported it twice.
// Putting back every file the run held before Compact — its WAL, whatever
// the layout names it — is the state such a kill leaves; a writable reopen
// and a read-only view must both export the batch exactly once.
func TestCompactionLeavesNoDouble(t *testing.T) {
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run1")
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	batch := batchOf(0, 20)
	if err := s.Append("run1", batch); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(runDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		before[ent.Name()] = data
	}
	if err := s.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range before {
		if err := os.WriteFile(filepath.Join(runDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	exportIs(t, "read-only over the kill's leftovers", ro, "run1", batch)
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exportIs(t, "reopened", s, "run1", batch)
	for name := range before {
		if _, err := os.Stat(filepath.Join(runDir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("the reopen kept the spent %s (%v)", name, err)
		}
	}
}

// TestBlockSequencePastSixDigits: block and WAL names are zero-padded to six
// digits and grow past them. A run whose blocks are 999 999 and 1 000 000
// and whose WAL seals into 1 000 001 must reopen with both blocks, in
// sequence order (not name order, which puts 1000000.blk first), and its
// tail; the next compaction must seal 1 000 001, not rename a block over
// 1000000.blk; and a read-only view must agree.
func TestBlockSequencePastSixDigits(t *testing.T) {
	dir := t.TempDir()
	runDir := filepath.Join(dir, "r")
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]byte{batchOf(0, 10), batchOf(10, 20)} {
		if err := s.Append("r", batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact("r"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("r", batchOf(20, 25)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for from, to := range map[string]string{"000001.blk": "999999.blk", "000002.blk": "1000000.blk", "wal-000003.q": "wal-1000001.q"} {
		if err := os.Rename(filepath.Join(runDir, from), filepath.Join(runDir, to)); err != nil {
			t.Fatal(err)
		}
	}

	s, err = Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exportIs(t, "reopened past six digits", s, "r", batchOf(0, 25))
	if err := s.Append("r", batchOf(25, 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("r"); err != nil {
		t.Fatal(err)
	}
	exportIs(t, "after the next compaction", s, "r", batchOf(0, 30))
	ents, err := os.ReadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	if got, want := strings.Join(names, " "), "1000000.blk 1000001.blk 999999.blk wal-1000002.q"; got != want {
		t.Errorf("run directory holds %s, want %s", got, want)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	exportIs(t, "read-only", ro, "r", batchOf(0, 30))

	// Only the names blockFile and walFile write are block or WAL names.
	for name, want := range map[string]int{
		"000007.blk": 7, "1000000.blk": 1000000, "wal-000007.q": 7, "wal-1234567.q": 1234567,
		"00007.blk": -1, "0000007.blk": -1, "+00007.blk": -1, "-00007.blk": -1, "00000x.blk": -1,
		"000007.blk.tmp": -1, "wal-0000007.q": -1, "wal--00007.q": -1, "99999999999999999999.blk": -1,
	} {
		seq, ok := seqOf(name, "", ".blk")
		if strings.HasPrefix(name, "wal-") {
			seq, ok = seqOf(name, "wal-", ".q")
		}
		if !ok {
			seq = -1
		}
		if seq != want {
			t.Errorf("seqOf(%q) = %d, %v; want %d", name, seq, ok, want)
		}
	}
}

// walRecord frames batch as Append does.
func walRecord(dst, batch []byte) []byte {
	return rawRecord(dst, append([]byte{recBatch}, batch...))
}

// rawRecord frames payload as a WAL record, whatever it holds: a record of
// the format before the tag, when it is a batch.
func rawRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, blockCRCTable))
}

// TestOpenRefusesLegacyWAL: a run directory laid out before WALs were
// numbered — its blocks and one wal.q holding the tail — is refused by a
// writable Open and by a read-only one, each naming the file, and the
// file is left as it was: its tail is neither adopted nor silently skipped.
func TestOpenRefusesLegacyWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("run1", batchOf(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(dir, "run1")
	wal := walRecord(nil, batchOf(5, 8))
	if err := os.Remove(filepath.Join(runDir, walFile(2))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runDir, legacyWAL), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), legacyWAL) {
		t.Errorf("writable Open over a wal.q: %v, want an error naming it", err)
	}
	if _, err := OpenReadOnly(dir); err == nil || !strings.Contains(err.Error(), legacyWAL) {
		t.Errorf("read-only Open over a wal.q: %v, want an error naming it", err)
	}
	if got, err := os.ReadFile(filepath.Join(runDir, legacyWAL)); err != nil || !bytes.Equal(got, wal) {
		t.Errorf("wal.q after the refused opens: %d bytes, %v; want its %d bytes untouched", len(got), err, len(wal))
	}
}

// TestOpenRefusesOrphanWAL: a WAL that is neither spent (its block exists)
// nor the next block's is nothing any writer leaves, and it may hold
// acknowledged events; a writable Open refuses to guess, while a read-only
// view, which a live writer's rotation can show such a listing, skips it.
func TestOpenRefusesOrphanWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("run1", batchOf(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run1", walFile(7)), walRecord(nil, batchOf(5, 6)), 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	exportIs(t, "read-only", ro, "run1", batchOf(0, 5))
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), walFile(7)) {
		t.Fatalf("writable Open over an orphan WAL: %v, want it named in an error", err)
	}
}

// TestOpenRemovesStrayBlockTemps: a compaction killed between creating its
// block temp file and renaming it leaves a .blk-* file that no block list
// reads. A writable Open owns the directory and removes it; a read-only
// open must leave it, because it may be a live writer's compaction in
// flight.
func TestOpenRemovesStrayBlockTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("run1", batchOf(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "run1", ".blk-1234")
	if err := os.WriteFile(stray, []byte("half a block"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenReadOnly(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("OpenReadOnly touched a possibly live compaction's temp file: %v", err)
	}

	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray block temp file after a writable Open: %v, want it removed", err)
	}
}

// referenceFilter is the trivially-correct row-wise implementation Scan
// and Aggregate are checked against.
func referenceFilter(events []telemetry.Event, q Query) []telemetry.Event {
	var out []telemetry.Event
	p := q.compile()
	for _, e := range events {
		e := e
		if p.matchesEvent(&e) {
			out = append(out, e)
		}
	}
	return out
}

// populate builds a store with n events split across blocks and a WAL
// tail, returning the events in admission order.
func populate(t *testing.T, n int) (*Store, []telemetry.Event) {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	events := make([]telemetry.Event, n)
	for i := range events {
		events[i] = testEvent(i)
	}
	for i := 0; i < n; i += 16 {
		end := i + 16
		if end > n {
			end = n
		}
		if err := s.Append("run1", batchOf(i, end)); err != nil {
			t.Fatal(err)
		}
	}
	return s, events
}

func TestArchiveScan(t *testing.T) {
	s, events := populate(t, 500)
	queries := []Query{
		{Run: "run1"},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete}},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.RebufferStart, telemetry.SessionEnd}},
		{Run: "run1", Group: "BBA-1"},
		{Run: "run1", Session: "d0.w0.s3.BBA-1"},
		{Run: "run1", From: 100 * time.Millisecond, To: 200 * time.Millisecond},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete}, Group: "BBA-0", From: 50 * time.Millisecond},
		{Run: "run1", To: time.Nanosecond}, // prunes every block but row 0's
	}
	for qi, q := range queries {
		want := referenceFilter(events, q)
		var got []telemetry.Event
		if err := s.Scan(q, func(e telemetry.Event) bool {
			got = append(got, e)
			return true
		}); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d events, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d row %d:\n got %+v\nwant %+v", qi, i, got[i], want[i])
			}
		}
	}

	// Early stop: fn returning false ends the scan.
	n := 0
	if err := s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early-stopped scan visited %d events, want 10", n)
	}

	if err := s.Scan(Query{Run: "nope"}, func(telemetry.Event) bool { return true }); err == nil {
		t.Fatal("scan of unknown run succeeded")
	}
}

// referenceRollup folds events row-wise with aggState's own addEvent —
// so the column-wise block path in Aggregate is what the test exercises.
func referenceRollup(events []telemetry.Event, q Query) []GroupRollup {
	st := new(aggState)
	p := q.compile()
	for i := range events {
		if p.matchesEvent(&events[i]) {
			st.addEvent(&events[i])
		}
	}
	var out []GroupRollup
	for _, gr := range st.groups {
		out = append(out, *gr)
	}
	return out
}

func TestArchiveAggregate(t *testing.T) {
	s, events := populate(t, 500)
	queries := []Query{
		{Run: "run1"},
		{Run: "run1", Group: "BBA-0"},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete, telemetry.RebufferEnd}},
		{Run: "run1", From: 37 * time.Millisecond, To: 401 * time.Millisecond},
	}
	for qi, q := range queries {
		got, err := s.Aggregate(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := referenceRollup(events, q)
		byGroup := map[string]GroupRollup{}
		for _, gr := range want {
			byGroup[gr.Group] = gr
		}
		if len(got.Groups) != len(byGroup) {
			t.Fatalf("query %d: %d groups, want %d", qi, len(got.Groups), len(byGroup))
		}
		for _, gr := range got.Groups {
			if gr != byGroup[gr.Group] {
				t.Fatalf("query %d group %s:\n got %+v\nwant %+v", qi, gr.Group, gr, byGroup[gr.Group])
			}
		}
	}
}

// TestBlockDetectsCorruption flips bytes in a sealed block and checks the
// CRCs catch it instead of returning silently wrong data.
func TestBlockDetectsCorruption(t *testing.T) {
	blk, _, err := encodeBlock("r", splitLines(batchOf(0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlock(blk); err != nil {
		t.Fatalf("pristine block rejected: %v", err)
	}
	// Corrupt a page byte (past header, before footer).
	for _, at := range []int{8, len(blk) / 2} {
		bad := append([]byte(nil), blk...)
		bad[at] ^= 0xFF
		b, err := DecodeBlock(bad)
		if err != nil {
			continue // footer-level detection
		}
		var export bytes.Buffer
		if err := b.Export(&export); err == nil {
			t.Fatalf("corruption at byte %d went undetected", at)
		}
	}
	// Truncations must error, never panic.
	for cut := 0; cut < len(blk); cut += 97 {
		if _, err := DecodeBlock(blk[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// craftBlock wraps an arbitrary footer in a valid envelope (magics,
// version, footer CRC) — the shape an adversary who can write block
// files controls completely.
func craftBlock(t testing.TB, ft footer) []byte {
	return seal(t, append(append([]byte(nil), blockMagic...), blockVersion), ft)
}

// seal appends ft and the trailer to body — a header and its pages — and
// signs them as encodeBlock does.
func seal(t testing.TB, body []byte, ft footer) []byte {
	t.Helper()
	ftJSON, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	blk := append(body[:len(body):len(body)], ftJSON...)
	blk = binary.LittleEndian.AppendUint32(blk, crc32.Checksum(ftJSON, blockCRCTable))
	blk = binary.LittleEndian.AppendUint32(blk, uint32(len(ftJSON)))
	return append(blk, blockEndMagic...)
}

// TestBlockRejectsCraftedFooter pins the never-panic property against
// footers that pass the CRC but carry hostile page geometry — offsets
// near MaxInt64 that overflow additive bounds checks, pages overlapping
// the header, and lengths past the file.
func TestBlockRejectsCraftedFooter(t *testing.T) {
	pages := map[string]pageInfo{
		"offset overflows int64": {Name: "kind", Off: math.MaxInt64 - 2, Len: 8},
		"length overflows int64": {Name: "kind", Off: 5, Len: math.MaxInt64 - 2},
		"page overlaps header":   {Name: "kind", Off: 0, Len: 4},
		"page past end of file":  {Name: "kind", Off: 5, Len: 1 << 30},
		"negative offset":        {Name: "kind", Off: -1, Len: 4},
	}
	for name, pg := range pages {
		blk := craftBlock(t, footer{Version: blockVersion, Rows: 1, Pages: []pageInfo{pg}})
		b, err := DecodeBlock(blk)
		if err == nil {
			// Even if decode were lenient, touching the page must not panic.
			if _, perr := b.page(pg.Name); perr == nil {
				t.Fatalf("%s: crafted page accepted outright", name)
			}
			t.Fatalf("%s: crafted footer accepted by DecodeBlock", name)
		}
	}
	// A row count no page could hold: every slab is sized from it, and
	// 1<<40 rows used to be an unrecoverable out-of-memory in the first
	// dictionary decode rather than an error. The pages are honest.
	blk, _, err := encodeBlock("r", splitLines(batchOf(0, 4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	ft := b.ft
	ft.Rows = 1 << 40
	if _, err := DecodeBlock(refoot(t, blk, ft)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("footer claiming 1<<40 rows over %d-byte pages: DecodeBlock error = %v, want ErrBadBlock", ft.Pages[0].Len, err)
	}
}

// refoot swaps a real block's footer for ft and re-signs the envelope:
// honest pages under whatever the footer now claims.
func refoot(t testing.TB, blk []byte, ft footer) []byte {
	return seal(t, blk[:len(blk)-blockTailLen-int(binary.LittleEndian.Uint32(blk[len(blk)-8:]))], ft)
}

func splitLines(batch []byte) [][]byte {
	var lines [][]byte
	for len(batch) > 0 {
		nl := bytes.IndexByte(batch, '\n')
		lines = append(lines, batch[:nl+1])
		batch = batch[nl+1:]
	}
	return lines
}

// TestReadOnlySeesLiveWriter checks a read-only store on a directory a
// writer is still mutating rebuilds its view per read — WAL re-scanned,
// blocks and runs re-listed — rather than trusting stale state from
// Open: everything the writer persisted before the query must appear,
// including blocks it sealed and runs it created after the open.
func TestReadOnlySeesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append("run1", batchOf(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	// After the read-only open: a second sealed block, a live WAL tail,
	// and a whole new run. All of it must be visible, none duplicated.
	if err := w.Append("run1", batchOf(5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("run1", batchOf(10, 12)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("run2", batchOf(0, 3)); err != nil {
		t.Fatal(err)
	}
	exportIs(t, "read-only, a block sealed after its open", ro, "run1", batchOf(0, 12))
	exportIs(t, "read-only, a run created after its open", ro, "run2", batchOf(0, 3))
	if runs := ro.Runs(); len(runs) != 2 {
		t.Fatalf("read-only Runs() = %v, want both runs", runs)
	}
}

func FuzzBlockDecode(f *testing.F) {
	blk, _, err := encodeBlock("r", splitLines(batchOf(0, 20)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blk)
	f.Add([]byte("BBAC"))
	f.Add([]byte{})
	// A CRC-valid footer with hostile page geometry: the fuzzer cannot
	// invent matching checksums, so seed it past the envelope checks.
	f.Add(craftBlock(f, footer{Version: blockVersion, Rows: 1,
		Pages: []pageInfo{{Name: "kind", Off: math.MaxInt64 - 2, Len: 8}}}))
	// The golden journal — long runs of unchanged rows — as v3 and
	// as the v2 and v1 encoders wrote it, which the open refuses; and a
	// one-row block, every bitmap a single byte.
	golden, _, err := encodeBlock("golden", goldenJournal())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(downgrade(f, golden, 2))
	f.Add(downgrade(f, golden, 1))
	one, _, err := encodeBlock("r", splitLines(batchOf(7, 8)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeBlock and every accessor must never panic, whatever the
		// input; corruption surfaces as errors.
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		touchBlock(b)
	})
}

// touchBlock exercises every accessor and both row loops of a decoded
// block; none may panic or allocate from an unchecked footer field.
func touchBlock(b *Block) {
	for c := 0; c < numDicts; c++ {
		b.dict(c)
	}
	b.Ints("at_ns")
	b.Export(&bytes.Buffer{})
	scanBlock(b, Query{}.compile(), func(telemetry.Event) bool { return true })
	foldBlock(new(aggState), b, Query{}.compile())
}

// FuzzBlockDecodeFooter fuzzes the footer's fields under a valid envelope:
// random bytes never carry a matching footer CRC, so FuzzBlockDecode alone
// stops at the checksum and never reaches the code that trusts the footer.
// Here the pages are a real block's, and refoot re-signs whatever the
// fuzzer makes of the row count, the raw count — which the open refuses
// unless it is 0 — and one page's geometry.
func FuzzBlockDecodeFooter(f *testing.F) {
	blk, _, err := encodeBlock("r", splitLines(batchOf(0, 20)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(20), int64(0), uint8(0), int64(0), int64(0))
	f.Add(int64(1)<<40, int64(0), uint8(1), int64(0), int64(0))
	f.Add(int64(21), int64(1)<<40, uint8(15), int64(1), int64(-1))
	f.Add(int64(19), int64(-1), uint8(3), int64(math.MaxInt64-9), int64(math.MaxInt64))
	// Rows past a page's bits, a page cut inside its bitmap, and the first
	// page reaching back into the header.
	f.Add(int64(8*3+1), int64(0), uint8(2), int64(0), int64(0))
	f.Add(int64(20), int64(0), uint8(4), int64(0), int64(-2))
	f.Add(int64(20), int64(0), uint8(0), int64(-1), int64(0))
	f.Fuzz(func(t *testing.T, rows, raws int64, page uint8, dOff, dLen int64) {
		honest, err := DecodeBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		ft := honest.ft
		ft.Rows, ft.Raws = int(rows), int(raws)
		ft.Pages = append([]pageInfo(nil), ft.Pages...)
		pg := &ft.Pages[int(page)%len(ft.Pages)]
		pg.Off += dOff
		pg.Len += dLen
		b, err := DecodeBlock(refoot(t, blk, ft))
		if err != nil {
			if !errors.Is(err, ErrBadBlock) {
				t.Fatalf("DecodeBlock error %v is not ErrBadBlock", err)
			}
			return
		}
		touchBlock(b)
	})
}
