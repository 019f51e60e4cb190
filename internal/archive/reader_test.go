package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"bba/internal/telemetry"
)

// TestAppendRefusesNonCanonical is Append's refusal table: a batch holding
// any line ParseJSONL refuses — reordered fields, a float, an unknown or
// retired kind, garbage, a bare newline, a last line without its newline —
// is refused whole with an error wrapping telemetry.ErrNotCanonical, alone
// or after a canonical line, and writes nothing: the WAL keeps its size, the
// export its bytes, and a refused batch for a new run creates no run.
func TestAppendRefusesNonCanonical(t *testing.T) {
	good := batchOf(0, 1)
	retired := bytes.Replace(good, []byte(`"kind":"session_start"`), []byte(`"kind":"lease_grant"`), 1)
	if bytes.Equal(retired, good) {
		t.Fatal("batchOf(0, 1) no longer opens with a session_start line")
	}
	refused := []string{
		`{"session":"d0.w0.s2.BBA-1","kind":"buffer_sample","at_ns":7}` + "\n",
		`{"kind":"chunk_complete","session":"d0.w0.s1.BBA-1","at_ns":1.5,"bytes":2000,"rate_bps":3000}` + "\n",
		`{"kind":"martian_event","session":"d0.w0.s9.BBA-0","at_ns":40}` + "\n",
		`{"kind":"session_end","session":"solo","played_ns":12,"at_ns":90}` + "\n",
		"not json at all\n",
		"\n",
		string(good[:len(good)-1]),
		string(retired),
	}
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i += 10 {
		if err := s.Append("r", batchOf(i, i+10)); err != nil {
			t.Fatal(err)
		}
	}
	walSize := func() int64 {
		t.Helper()
		wals, err := filepath.Glob(filepath.Join(dir, "r", "wal-*.q"))
		if err != nil || len(wals) != 1 {
			t.Fatalf("WAL files %v, %v; want one", wals, err)
		}
		fi, err := os.Stat(wals[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var want bytes.Buffer
	if err := s.Export("r", &want); err != nil {
		t.Fatal(err)
	}
	size := walSize()
	for _, line := range refused {
		for _, batch := range []string{line, string(good) + line} {
			if err := s.Append("r", []byte(batch)); !errors.Is(err, telemetry.ErrNotCanonical) {
				t.Fatalf("Append(%q) = %v, want ErrNotCanonical", batch, err)
			}
			if err := s.Append("fresh", []byte(batch)); !errors.Is(err, telemetry.ErrNotCanonical) {
				t.Fatalf("Append(%q) to a new run = %v, want ErrNotCanonical", batch, err)
			}
			if got := walSize(); got != size {
				t.Fatalf("after refusing %q the WAL is %d bytes, was %d", batch, got, size)
			}
			var got bytes.Buffer
			if err := s.Export("r", &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("after refusing %q the export changed", batch)
			}
		}
	}
	if runs := s.Runs(); !slices.Equal(runs, []string{"r"}) {
		t.Fatalf("runs %v after refused batches for a new one, want [r]", runs)
	}
}

// TestWALLineNotCanonical: a WAL written before Append refused non-canonical
// lines may hold one. Export still copies it verbatim, but Scan and
// Aggregate, which must parse it, fail naming it. Sealing it fails too,
// leaving the WAL in place, and not as a refused batch
// (telemetry.ErrNotCanonical), since the batches it holds were written.
func TestWALLineNotCanonical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("r", batchOf(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := []byte(`{"kind":"martian_event","session":"d0.w0.s9.BBA-0","at_ns":40}` + "\n")
	wal := filepath.Join(dir, "r", walFile(1))
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write(walRecord(nil, foreign))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if s, err = Open(Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exportIs(t, "a WAL holding a foreign line", s, "r", append(batchOf(0, 3), foreign...))
	scanned := 0
	if err := s.Scan(Query{Run: "r"}, func(telemetry.Event) bool { scanned++; return true }); !errors.Is(err, telemetry.ErrNotCanonical) || scanned != 3 {
		t.Errorf("Scan: %d events, %v; want the 3 before the foreign line, then ErrNotCanonical", scanned, err)
	}
	if _, err := s.Aggregate(Query{Run: "r"}); !errors.Is(err, telemetry.ErrNotCanonical) {
		t.Errorf("Aggregate: %v, want ErrNotCanonical", err)
	}
	if err := s.Compact("r"); err == nil || errors.Is(err, telemetry.ErrNotCanonical) {
		t.Errorf("Compact: %v, want an error that is not ErrNotCanonical", err)
	}
	if _, err := os.Stat(wal); err != nil {
		t.Errorf("the WAL that failed to seal: %v", err)
	}
}

// TestAppendSealFailureKeepsBatch: a batch is on the WAL before the seal it
// trips starts, so a seal that fails does not fail the batch — Append
// returns nil, and a collector ACKs what Export holds rather than NACKing a
// batch a retry would archive twice. The failure sticks to the run: the
// next Append is refused before it writes, with an error that is not
// ErrNotCanonical, so a collector stops taking frames rather than calling
// them bad.
func TestAppendSealFailureKeepsBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("r", batchOf(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := []byte(`{"kind":"martian_event","session":"d0.w0.s9.BBA-0","at_ns":40}` + "\n")
	wal := filepath.Join(dir, "r", walFile(1))
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write(walRecord(nil, foreign))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if s, err = Open(Config{Dir: dir, CompactEvents: 4}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("r", batchOf(2, 4)); err != nil {
		t.Fatalf("Append whose seal failed: %v, want nil: the batch is on the WAL", err)
	}
	held := append(append(batchOf(0, 1), foreign...), batchOf(2, 4)...)
	exportIs(t, "after the failed seal", s, "r", held)
	before, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("r", batchOf(4, 5)); err == nil || errors.Is(err, telemetry.ErrNotCanonical) {
		t.Errorf("Append after the failed seal: %v, want the seal's error, not ErrNotCanonical", err)
	}
	if err := s.Compact("r"); err == nil || errors.Is(err, telemetry.ErrNotCanonical) {
		t.Errorf("Compact after the failed seal: %v, want the seal's error, not ErrNotCanonical", err)
	}
	if after, err := os.Stat(wal); err != nil || after.Size() != before.Size() {
		t.Errorf("WAL after the refused Append: %v, %v; want %d bytes, unchanged", after, err, before.Size())
	}
	exportIs(t, "after the refused Append", s, "r", held)
}

// goldenJournal is the golden blocks' fixed journal: canonical lines in
// which a session recurs.
func goldenJournal() [][]byte { return splitLines(batchOf(0, 320)) }

// TestBlockFormatGolden pins the block format to its bytes: encodeBlock
// over the fixed journal must keep this SHA-256. A read-path change that
// also moves this hash has touched the format, whatever else it claims.
func TestBlockFormatGolden(t *testing.T) {
	blk, _, err := encodeBlock("golden", goldenJournal())
	if err != nil {
		t.Fatal(err)
	}
	const want = "f81598ef7e91b8ab2bdab888b36946a9a2d702ee0064034c54c48b0197887e08"
	if got := sha256.Sum256(blk); hex.EncodeToString(got[:]) != want {
		t.Fatalf("encodeBlock over the fixed journal = %d bytes, sha256 %x, want %s: the v3 block format moved",
			len(blk), got, want)
	}
}

// TestExportRetiredKind: testdata/retired-kind.blk holds a canonical row —
// not raw — whose kind-dictionary name, lease_grant, is no longer a Kind, as
// a block sealed before that kind was retired does. (It was sealed by
// encodeBlock from retired-kind.jsonl with that row's kind written as
// fault_inject, then that dictionary entry and the footer's kind list
// renamed lease_grant and the block re-signed.) Export must still write the
// row's stored name rather than "unknown": export stays lossless for blocks
// written before a kind is retired.
func TestExportRetiredKind(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "retired-kind.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	if err := b.openFile(&blockMeta{path: filepath.Join("testdata", "retired-kind.blk")}); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if b.ft.Raws != 0 {
		t.Fatalf("fixture has %d raw rows, want every row canonical", b.ft.Raws)
	}
	if _, ok := telemetry.ParseKind("lease_grant"); ok {
		t.Fatal("lease_grant is a Kind again; the fixture no longer exercises a retired kind")
	}
	var got bytes.Buffer
	if err := b.Export(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("export differs from the sealed lines:\ngot  %s\nwant %s", got.Bytes(), want)
	}
}

// readLog is an io.ReaderAt that records every read.
type readLog struct {
	src   io.ReaderAt
	reads []pageInfo // Off and Len of each ReadAt; Name filled by pages
}

func (r *readLog) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, pageInfo{Off: off, Len: int64(len(p))})
	return r.src.ReadAt(p, off)
}

// pages names what was read since the last call: "envelope" for the
// header, trailer and footer, else the page the read covers exactly
// (payload plus CRC). Any other read fails the test.
func (r *readLog) pages(t *testing.T, b *Block) []string {
	t.Helper()
	footerAt := int64(headerLen) // the footer starts where the last page's CRC ends
	for _, pg := range b.ft.Pages {
		footerAt = max(footerAt, pg.Off+pg.Len+4)
	}
	var names []string
	for _, rd := range r.reads {
		name := ""
		if rd.Off+rd.Len <= headerLen || rd.Off >= footerAt {
			name = "envelope"
		}
		for _, pg := range b.ft.Pages {
			if rd.Off == pg.Off && rd.Len == pg.Len+4 {
				name = pg.Name
			}
		}
		if name == "" {
			t.Fatalf("read of %d bytes at %d is neither the envelope nor exactly one page", rd.Len, rd.Off)
		}
		names = append(names, name)
	}
	r.reads = nil
	return names
}

// TestSessionScanReadsOnlyItsPages holds the reader to page granularity,
// counting reads on the very reader DecodeBlock wraps: opening a block is
// the envelope; a session the block lacks costs the session page and
// nothing else (and nothing at all when its group is not in the footer); a
// session it holds reads every page once; and a rollup never reads a page
// it does not fold.
func TestSessionScanReadsOnlyItsPages(t *testing.T) {
	blk, _, err := encodeBlock("r", splitLines(batchOf(0, 400)))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(blk))
	log := &readLog{src: bytes.NewReader(blk)}
	open := func() *Block {
		t.Helper()
		b := new(Block)
		if err := b.open(log, size); err != nil {
			t.Fatal(err)
		}
		if got := log.pages(t, b); strings.Join(got, ",") != "envelope,envelope,envelope" {
			t.Fatalf("open read %v, want the header, the trailer and the footer", got)
		}
		return b
	}
	scan := func(q Query) (pages []string, events int) {
		t.Helper()
		b := open()
		if err := scanBlock(b, q.compile(), func(telemetry.Event) bool { events++; return true }); err != nil {
			t.Fatal(err)
		}
		return log.pages(t, b), events
	}

	if pages, n := scan(Query{Session: "d0.w0.s3.BBA-7"}); len(pages) != 0 || n != 0 {
		t.Errorf("session of a group the footer does not list: read %v, matched %d; want no page read", pages, n)
	}
	if pages, n := scan(Query{Session: "d0.w0.s99.BBA-1"}); strings.Join(pages, ",") != "session" || n != 0 {
		t.Errorf("session absent from the block: read %v, matched %d; want the session page only", pages, n)
	}
	pages, n := scan(Query{Session: "d0.w0.s3.BBA-1"})
	sort.Strings(pages)
	var all []string
	for _, pg := range open().ft.Pages {
		if pg.Name != "raw" {
			all = append(all, pg.Name)
		}
	}
	sort.Strings(all)
	if n == 0 || strings.Join(pages, ",") != strings.Join(all, ",") {
		t.Errorf("session present: matched %d, read %v; want every column page exactly once: %v", n, pages, all)
	}

	b := open()
	if ok, err := b.prepareFold(Query{}.compile()); !ok || err != nil {
		t.Fatalf("prepareFold = %v, %v", ok, err)
	}
	new(aggState).addBlock(b)
	pages = log.pages(t, b)
	sort.Strings(pages)
	if want := "bytes,duration_ns,kind,played_ns,prev_rate_index,rate_bps,rate_index,session"; strings.Join(pages, ",") != want {
		t.Errorf("Aggregate read %v, want exactly %s (never label, at_ns, buffer_ns, ...)", pages, want)
	}
}

// distinctEvent gives every block of a CompactEvents: 64 store its own
// session and label strings, so a string that aliased a reused buffer
// would change under the test's feet.
func distinctEvent(i int) telemetry.Event {
	e := testEvent(i)
	e.Session = fmt.Sprintf("d%d.w0.s%d.BBA-%d", i/64, i%5, i%2)
	e.Label = fmt.Sprintf("label-%d-%d", i/64, i%3)
	return e
}

// TestScanEventsOutliveTheirBlock retains every event Scan hands out — from
// five blocks and from the WAL tail — and compares them only at the end: the
// reader refills the same slabs and page buffer block after block and the
// same WAL buffer query after query, and nothing a callback kept may move.
func TestScanEventsOutliveTheirBlock(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []telemetry.Event
	for i := 0; i < 64*5+10; i += 32 {
		var batch []byte
		for j := i; j < i+32 && j < 64*5+10; j++ {
			want = append(want, distinctEvent(j))
			batch = telemetry.AppendJSONL(batch, want[j])
		}
		if err := s.Append("r", batch); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st[0].Blocks != 5 || st[0].WALEvents != 10 {
		t.Fatalf("layout %+v, want 5 blocks and a 10-event tail", st)
	}
	var got []telemetry.Event
	if err := s.Scan(Query{Run: "r"}, func(e telemetry.Event) bool { got = append(got, e); return true }); err != nil {
		t.Fatal(err)
	}
	// Two further queries refill the same reader's slabs, page buffer and
	// WAL buffer — the second over a tail that has changed under it, so the
	// buffer the last ten events were parsed from now holds other bytes.
	if _, err := s.Aggregate(Query{Run: "r"}); err != nil {
		t.Fatal(err)
	}
	var other []byte
	for j := 0; j < 10; j++ {
		other = telemetry.AppendJSONL(other, distinctEvent(64*7+j))
	}
	if err := s.Append("r", other); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("r"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("r", other); err != nil {
		t.Fatal(err)
	}
	if err := s.Export("r", io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d, read back after the scan moved on:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// groupBatch renders events [from, to) with every session in group g, so a
// block sealed from them is the only one whose footer lists g.
func groupBatch(g string, from, to int) []byte {
	var b []byte
	for i := from; i < to; i++ {
		e := testEvent(i)
		e.Session = fmt.Sprintf("d0.w0.s%d.%s", i%3, g)
		b = telemetry.AppendJSONL(b, e)
	}
	return b
}

// damageFooter flips one byte in the middle of each block file's footer, in
// place: the file keeps its size, and only a reader that re-reads the
// footer can tell.
func damageFooter(t *testing.T, paths ...string) {
	t.Helper()
	for _, path := range paths {
		blk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flen := int(binary.LittleEndian.Uint32(blk[len(blk)-8:]))
		blk[len(blk)-blockTailLen-flen/2] ^= 0x20
		if err := os.WriteFile(path, blk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryOpensOnlyTheBlocksItReads holds the store to its footers: a query
// prunes on the footers it holds and opens only the block files that
// survive, and reads no footer a second time. Each of four blocks is the one
// group's; a session query must survive one block.
func TestQueryOpensOnlyTheBlocksItReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := 0; k < 4; k++ { // 64 events a batch: each seals block k+1
		if err := s.Append("r", groupBatch(fmt.Sprintf("G%d", k), 64*k, 64*(k+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("r", groupBatch("G2", 256, 266)); err != nil {
		t.Fatal(err)
	}
	journal := bytes.Join([][]byte{groupBatch("G0", 0, 64), groupBatch("G1", 64, 128),
		groupBatch("G2", 128, 192), groupBatch("G3", 192, 256), groupBatch("G2", 256, 266)}, nil)
	var blocks []string
	for seq := 1; seq <= 4; seq++ {
		blocks = append(blocks, filepath.Join(dir, "r", blockFile(seq)))
	}
	q := Query{Run: "r", Session: "d0.w0.s1.G2"}
	scan := func(view string, st *Store) []telemetry.Event {
		t.Helper()
		var got []telemetry.Event
		if err := st.Scan(q, func(e telemetry.Event) bool { got = append(got, e); return true }); err != nil {
			t.Fatalf("%s: %v", view, err)
		}
		return got
	}
	want := scan("writer", s)
	if len(want) != 21+4 { // every third of block 3's events and of the tail's
		t.Fatalf("scan of %s matched %d events, want 25", q.Session, len(want))
	}
	same := func(view string, st *Store) {
		t.Helper()
		if got := scan(view, st); !slices.Equal(got, want) {
			t.Errorf("%s: scan returned %d events, want the %d of the first", view, len(got), len(want))
		}
	}

	// A read-only view's first query reads every footer; damaged in place
	// after it, they are never read again — not by a second session query,
	// nor by an Export, whose page reads are still all CRC-checked. A fresh
	// view does read them, and refuses.
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	same("read-only, cold", ro)
	damageFooter(t, blocks...)
	same("read-only, warm", ro)
	exportIs(t, "read-only, warm", ro, "r", journal)
	fresh, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Scan(q, func(telemetry.Event) bool { return true }); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("a fresh view over the damaged footers: %v, want ErrBadBlock", err)
	}

	// The writer holds the footers its compactions built. With every block
	// but the one holding the session's group gone, its query still answers:
	// it opened no other file.
	for i, path := range blocks {
		if i != 2 {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	same("writer, pruned blocks removed", s)
	if _, err := s.Aggregate(Query{Run: "r", Group: "G2"}); err != nil {
		t.Fatalf("writer, rollup of the one group left: %v", err)
	}
}

// TestChangedBlockIsReread: a block is immutable, so a footer verified at one
// file size holds while the file keeps it. A block replaced by another of a
// different size — the same rows with every column page in mode 0, at
// other page offsets — is re-read by the writer that sealed it and by a warm read-only
// view, and still answers; one truncated after its footer was held is
// re-read and refused. A read-only view re-lists per query, so it also
// drops the held footer of a block replaced by one with other rows before
// pruning on it.
func TestChangedBlockIsReread(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	journal := batchOf(0, 64*3)
	for i := 0; i < 3; i++ {
		if err := s.Append("r", batchOf(64*i, 64*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	exportIs(t, "read-only, cold", ro, "r", journal)
	path := filepath.Join(dir, "r", blockFile(2))
	blk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*Store{"writer": s, "read-only": ro}

	remoded := remode(t, blk, 0)
	if len(remoded) == len(blk) {
		t.Fatalf("block 2 re-rendered in mode 0 is %d bytes, as it was", len(blk))
	}
	if err := os.WriteFile(path, remoded, 0o644); err != nil {
		t.Fatal(err)
	}
	for view, st := range views {
		exportIs(t, view+", block 2 replaced", st, "r", journal)
		if _, err := st.Aggregate(Query{Run: "r"}); err != nil {
			t.Errorf("%s, block 2 replaced: Aggregate: %v", view, err)
		}
	}

	if err := os.WriteFile(path, blk[:len(blk)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	for view, st := range views {
		if err := st.Export("r", io.Discard); !errors.Is(err, ErrBadBlock) {
			t.Errorf("%s, block 2 truncated: Export error %v, want ErrBadBlock", view, err)
		}
		if _, err := st.Aggregate(Query{Run: "r"}); !errors.Is(err, ErrBadBlock) {
			t.Errorf("%s, block 2 truncated: Aggregate error %v, want ErrBadBlock", view, err)
		}
	}

	other, _, err := encodeBlock("r", splitLines(groupBatch("G9", 0, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if len(other) == len(blk) || len(other) == len(blk)-1 {
		t.Fatalf("the replacement block is %d bytes, as one before it was", len(other))
	}
	if err := os.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	roll, err := ro.Aggregate(Query{Run: "r", Group: "G9"})
	if err != nil || len(roll.Groups) != 1 || roll.Groups[0].Events != 64 {
		t.Errorf("read-only, block 2 replaced by group G9's: rollup %+v, %v; want G9's 64 events", roll.Groups, err)
	}
}

// queryAlloc returns the bytes run allocates.
func queryAlloc(t *testing.T, run func() error) uint64 {
	t.Helper()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.TotalAlloc
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&mem)
	return mem.TotalAlloc - before
}

// TestQueryAllocationBudget holds the read path's allocation per event
// covered, warm, for each query of the benchmark's mix over four sealed
// blocks and a WAL tail, at whatever width -cpu gives the walker. What
// remains is per query and per block opened, not per row: each opened
// file's os.File, the compiled plan, the worker goroutines and the rollup's
// result — 0.026 to 0.056 B per event on this store. Footers are parsed once
// per store; the dictionaries' and the tail's strings are interned on the
// readers from query to query; the rollup's session set, the WAL buffer,
// line index and Export's rendered pieces belong to the readers and are
// refilled. The least of seven warm runs is held to the budget: at -cpu 4
// on two cores the runtime makes fresh goroutines for about half the
// queries, ≈ 1.5 KB (0.03 to 0.05 B an event) that a single run would
// charge to the query. The median of the seven is held to the budgets
// before these, so an allocation that comes back in most queries still
// fails; one in fewer than half of them, as the runtime's are, is out of
// this test's reach.
// While each query copied every dictionary it decoded and the tail's
// distinct strings, the same queries cost 0.101, 0.085, 0.085 and 0.066 B,
// and the budgets were 0.19, 0.19, 0.19 and 0.17;
// while each re-parsed every footer, copied two strings a tail line and
// rebuilt the session set, 0.5 to 0.7 B; while each read the WAL into a
// fresh buffer and ParseJSONL allocated 13 times a line, 13.5 to 14.5 B;
// and while every column slab grew from nil by append and every block was
// read whole, 260, 460, 490 and 590 B.
func TestQueryAllocationBudget(t *testing.T) {
	const blockEvents, blocks, tail = 8192, 4, 512
	const n = blockEvents*blocks + tail
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: blockEvents})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i += 256 {
		if err := s.Append("r", batchOf(i, i+256)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st[0].Blocks != blocks || st[0].WALEvents != tail {
		t.Fatalf("layout %+v, want %d blocks and a %d-event tail", st, blocks, tail)
	}
	// scan counts in place (no event is retained) and refuses an empty answer.
	scan := func(q Query) func() error {
		return func() error {
			matched := 0
			err := s.Scan(q, func(telemetry.Event) bool { matched++; return true })
			if err == nil && matched == 0 {
				err = fmt.Errorf("scan %+v matched nothing", q)
			}
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		budget float64 // bytes per event covered, the least of seven runs
		most   float64 // and their median
		run    func() error
	}{
		{"aggregate", 0.09, 0.19, func() error { _, err := s.Aggregate(Query{Run: "r"}); return err }},
		{"scan_session", 0.07, 0.19, scan(Query{Run: "r", Session: "d0.w0.s3.BBA-1"})},
		{"scan_kind", 0.07, 0.19, scan(Query{Run: "r", Kinds: []telemetry.Kind{telemetry.RebufferStart, telemetry.RebufferEnd}})},
		{"export", 0.05, 0.17, func() error { return s.Export("r", io.Discard) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm: the store's idle readers are sized
				t.Fatal(err)
			}
			runs := make([]float64, 7)
			for i := range runs {
				runs[i] = float64(queryAlloc(t, tc.run)) / n
			}
			slices.Sort(runs)
			lo, med := runs[0], runs[len(runs)/2]
			t.Logf("%.3f B per event covered, %.3f in the median", lo, med)
			if lo > tc.budget || med > tc.most {
				t.Errorf("%.3f B allocated per event covered, %.3f in the median; budgets %.2f and %.2f", lo, med, tc.budget, tc.most)
			}
		})
	}
}

// TestQueriesRaceAppendAndCompaction runs Scan, Aggregate and Export from
// several goroutines against a store that is appending and sealing blocks
// the whole time (run it under -race). Every read view is taken at one
// instant, so whatever a reader sees must be a whole number of admitted
// batches: an export is exactly a prefix of the final journal, and a scan
// and a rollup count exactly the events of such a prefix.
func TestQueriesRaceAppendAndCompaction(t *testing.T) {
	const batch, batches = 16, 120
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("r", batchOf(0, batch)); err != nil {
		t.Fatal(err)
	}
	journal := batchOf(0, batch*batches)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wholeBatches := func(what string, events int64) {
		if events%batch != 0 || events > batch*batches {
			t.Errorf("%s saw %d events: not a whole number of the %d-event batches admitted", what, events, batch)
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-done:
					last = true // one more pass, over the finished store
				default:
				}
				switch r {
				case 0:
					var n int64
					if err := s.Scan(Query{Run: "r"}, func(telemetry.Event) bool { n++; return true }); err != nil {
						t.Error(err)
					}
					wholeBatches("Scan", n)
				case 1:
					roll, err := s.Aggregate(Query{Run: "r"})
					if err != nil {
						t.Error(err)
					}
					var n int64
					for _, g := range roll.Groups {
						n += g.Events
					}
					wholeBatches("Aggregate", n)
					if roll.Rows != n {
						t.Errorf("Aggregate folded %d events of %d rows", n, roll.Rows)
					}
				case 2:
					var got bytes.Buffer
					if err := s.Export("r", &got); err != nil {
						t.Error(err)
					}
					if !bytes.HasPrefix(journal, got.Bytes()) {
						t.Errorf("Export's %d bytes are not a prefix of the journal admitted", got.Len())
					}
					if last && got.Len() != len(journal) {
						t.Errorf("final Export = %d bytes, want all %d", got.Len(), len(journal))
					}
				}
			}
		}(r)
	}
	for i := 1; i < batches; i++ {
		if err := s.Append("r", batchOf(i*batch, (i+1)*batch)); err != nil {
			t.Fatal(err)
		}
		if i%40 == 0 {
			if err := s.Compact("r"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if st := s.Stats(); st[0].Blocks < 10 {
		t.Fatalf("only %d blocks sealed under the readers; the test did not race a compaction", st[0].Blocks)
	}
}

// TestReadOnlyRacesCompaction holds a read-only view — bbaquery -dir over a
// live collector's directory — to exactly-once while the writer appends and
// seals: a WAL the view listed and then finds gone was sealed in between,
// and the view re-lists rather than fail or miss the block; every export is
// whole batches of a prefix of the journal, never a sealed tail twice.
func TestReadOnlyRacesCompaction(t *testing.T) {
	const batch, batches = 8, 120
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("r", batchOf(0, batch)); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The window itself, unraced: a listing taken before a compaction, read
	// after it.
	ro.mu.Lock()
	stale := ro.runs["r"]
	ro.mu.Unlock()
	if err := s.Compact("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.readWAL(new(Block), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("WAL sealed after the listing: read error %v, want os.ErrNotExist", err)
	}

	journal := batchOf(0, batch*batches)
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Two readers: each visits every block the writer seals first, and the
	// view's metas record the footers whichever reads them first.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-done:
					last = true
				default:
				}
				var got bytes.Buffer
				if err := ro.Export("r", &got); err != nil {
					t.Error(err)
					return
				}
				if lines := bytes.Count(got.Bytes(), []byte{'\n'}); lines%batch != 0 || !bytes.HasPrefix(journal, got.Bytes()) {
					t.Errorf("read-only Export of %d lines is not whole batches of a prefix of the journal", lines)
				}
				if last && got.Len() != len(journal) {
					t.Errorf("final read-only Export = %d bytes, want all %d", got.Len(), len(journal))
				}
			}
		}()
	}
	for i := 1; i < batches; i++ {
		if err := s.Append("r", batchOf(i*batch, (i+1)*batch)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := s.Compact("r"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestCompactionAllocationBudget holds what sealing a block allocates per
// line: the two strings ParseJSONL hands over and, amortised, the presized
// columns, row slabs and output — 12 × 8 B of integers, 3 × 8 B of dictionary
// indexes and ≈ 32 B of block a line. With the closure-built decoder and
// every slab grown from nil by append the same block cost 15 allocations and
// ≈ 1.3 KB a line, inside the Append that gates the ACK.
func TestCompactionAllocationBudget(t *testing.T) {
	lines := splitLines(batchOf(0, 8192))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blk, _, err := encodeBlock("r", lines)
	runtime.ReadMemStats(&after)
	if err != nil || len(blk) == 0 {
		t.Fatalf("encodeBlock: %d bytes, %v", len(blk), err)
	}
	n := float64(len(lines))
	allocs, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
	t.Logf("%.2f allocations and %.0f B per line", allocs, bytes)
	if allocs > 3 || bytes > 400 {
		t.Errorf("encodeBlock allocated %.2f times and %.0f B per line, budget 3 and 400", allocs, bytes)
	}
}
