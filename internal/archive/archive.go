// Package archive is the collector's durable session store: an
// append-only write-ahead log fed by admitted event batches that compacts
// into immutable columnar blocks, plus a query layer that answers
// kind/session/time questions and computes rebuffer/rate/switch rollups
// straight off the encoded columns.
//
// The shape follows grafana/tempo's tempodb — WAL, then sealed blocks,
// per-column encoding and a footer index — scaled to this repo's needs.
// The paper's evidence chain is exactly this workload: millions of
// archived sessions interrogated after the fact (Figures 4–9 are all
// post-hoc scans over the fleet's event log), and Puffer (Yan et al.,
// NSDI 2020) showed the durable, queryable archive *is* the experiment
// platform.
//
// Layout under the store directory, one subdirectory per run (the run id
// path-escaped):
//
//	<dir>/<run>/000001.blk      immutable columnar blocks, in admission order
//	<dir>/<run>/000002.blk
//	<dir>/<run>/wal-000003.q    the active WAL tail, CRC-framed records,
//	                            named after the block it will become
//
// Admit archives a frame's batch unless the frame is below its stream's
// watermark; the WAL record holding the batch also advances the watermark,
// so admission is one durable fact and a restart never archives a frame
// twice. Every WAL begins with a snapshot of its run's watermarks. A batch
// is admitted only if telemetry.ParseJSONL accepts every line of it; any
// other batch is refused whole, wrapping telemetry.ErrNotCanonical.
//
// Once the WAL holds CompactEvents events (or CompactBytes bytes) it is
// rewritten as its block, the next block's WAL is written and renamed into
// place, and the sealed one removed. Every line is in exactly one of the
// two forms — a WAL whose block exists is spent, whatever a crash left —
// so Export, blocks in order and then the WAL tail, reproduces the
// admitted journal byte for byte, the losslessness contract the tests pin.
//
// Crash recovery: a writable Open removes temp files, rebuilds the
// watermarks from the WALs (a spent one is read before it is deleted),
// truncates the active WAL at its first damaged record (a torn tail loses
// only the un-acknowledged suffix) and appends after it. Blocks are
// immutable and self-verifying (CRC per column page, CRC'd footer), so
// they need no repair pass. What this store did not write is refused by
// every Open, naming the file, never adopted nor cut as a torn tail: the
// unnumbered wal.q of a store from before WALs were named after their
// block, a WAL that does not begin with a snapshot, a record whose CRC
// holds but whose tag or stream does not parse.
package archive

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/obs"
	"bba/internal/telemetry"
)

// blockFile names block seq and walFile the WAL that seals into it, so a
// block's presence says its WAL is spent. The number is zero-padded to six
// digits and grows past them.
func blockFile(seq int) string { return fmt.Sprintf("%06d.blk", seq) }

func walFile(seq int) string { return fmt.Sprintf("wal-%06d.q", seq) }

// seqOf parses name as prefix, a sequence number and suffix, written as
// blockFile and walFile write them: digits only, at least six, and no
// leading zero beyond the padding.
func seqOf(name, prefix, suffix string) (int, bool) {
	digits, okPrefix := strings.CutPrefix(name, prefix)
	digits, okSuffix := strings.CutSuffix(digits, suffix)
	if !okPrefix || !okSuffix || len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, strconv.IntSize-1) // digits only: no sign
	return int(seq), err == nil
}

// legacyWAL is the one WAL file of a store written before WALs were named
// after their block, which no Open accepts.
const legacyWAL = "wal.q"

// blockTempPrefix and walTempPrefix name a block and a WAL being written,
// before their rename: every dot file in a run directory is one.
const blockTempPrefix, walTempPrefix = ".blk-", ".wal-"

// ErrReadOnly reports a mutating call on a read-only store.
var ErrReadOnly = errors.New("archive: store is read-only")

// Config configures a Store.
type Config struct {
	// Dir is the store's root directory (required; created if missing).
	Dir string
	// CompactEvents seals the WAL into a block once it holds this many
	// events (default 65536).
	CompactEvents int
	// CompactBytes seals the WAL once it holds this many bytes
	// (default 16 MiB), whichever trips first.
	CompactBytes int64
}

func (c *Config) applyDefaults() {
	if c.CompactEvents <= 0 {
		c.CompactEvents = 1 << 16
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 16 << 20
	}
}

// Store is the archive: Admit and Append feed event batches in, the query
// layer (Scan, Aggregate, Export) reads blocks plus the live WAL tail.
// Safe for concurrent use. Admit implements the collector's Archiver
// seam, so a Store can be wired directly into collect.CollectorConfig.
type Store struct {
	cfg      Config
	readOnly bool

	mu    sync.Mutex
	runs  map[string]*runArchive
	marks Watermarks // every stream's, as a writable store's WALs record them
	// names interns the strings of Append's admission parse; each seal
	// clears it.
	names telemetry.Interner
	// idle are the readers queries finished with — page buffers, slabs and
	// WAL buffers, never decoded data or an open file — so the next query and
	// its workers start with them already sized: at most maxIdleReaders,
	// newest last (see walk). The store owns them, not a sync.Pool, whose
	// items a GC drops.
	idle []*Block

	// compactSeconds is the wall time of every compaction so far, observed
	// in compactLocked.
	compactSeconds obs.Histogram
	// querySeconds is the wall time of every Aggregate, Scan and Export, as
	// compactSeconds is of compactions; blocksRead and blocksPruned count the
	// blocks those queries opened and those they skipped, unopened, on the
	// footer the store holds. Each is recorded when a query releases its
	// reader.
	querySeconds             obs.Histogram
	blocksRead, blocksPruned int64
	// sealedBytes and sealedRows are what this store's compactions have
	// written: block file bytes and the events in them. Their ratio is the
	// store's density, bytes an archived event.
	sealedBytes, sealedRows int64
}

// latencyBounds are the compaction and query histograms' upper bounds, in
// seconds: a default-size block takes a few hundred milliseconds to seal, a
// shutdown's tail a few; a query from well under a millisecond (one block's
// session page) to seconds (an export of millions of events).
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 10}

// runArchive is one run's slice of the store.
type runArchive struct {
	dir     string
	run     string
	blocks  []*blockMeta // in block-sequence order
	nextSeq int
	// walName is the WAL file the tail is read from: walFile(nextSeq) in a
	// writable store; in a read-only view the one the listing found, or ""
	// when there was none.
	walName string
	wal     *os.File
	walBuf  *bufio.Writer
	events  int   // events in the WAL
	bytes   int64 // payload bytes in the WAL
	// sealErr is a seal that failed inside Append, after its batch was on
	// the WAL: every later Append or compaction of the run returns it.
	sealErr error
	// spent is set while a spent WAL is in the directory: a WAL with no
	// whole snapshot after it is a seal's unfinished successor, not foreign.
	spent bool
}

// Watermarks is the admission state of streams: for each (run, session),
// next, the seq after its last admitted frame; a frame is fresh iff its seq
// ≥ next. A Store keeps its watermarks in its WALs; a Watermarks alone is
// in memory and archives nothing, what a collector with no store admits
// through. A seq is below 2^64−1, whose next would wrap to 0.
type Watermarks struct{ next map[string]map[uint64]uint64 }

// Admit admits frame seq of stream (run, session) unless seq is below the
// stream's watermark, a duplicate.
func (w *Watermarks) Admit(run string, session, seq uint64, _ []byte) (dup bool, err error) {
	if dup = seq < w.next[run][session]; !dup {
		w.advance(run, session, seq+1)
	}
	return dup, nil
}

// advance raises the watermark of stream (run, session) to next.
func (w *Watermarks) advance(run string, session, next uint64) {
	if w.next == nil {
		w.next = map[string]map[uint64]uint64{}
	}
	if w.next[run] == nil {
		w.next[run] = map[uint64]uint64{}
	}
	w.next[run][session] = max(w.next[run][session], next)
}

// Streams returns how many streams hold a watermark.
func (w *Watermarks) Streams() int {
	n := 0
	for _, m := range w.next {
		n += len(m)
	}
	return n
}

// blockMeta is what the store knows of one sealed block: its file and its
// verified footer, recorded by the compaction that built the block or by the
// first query to open it. So a query prunes on the footer in memory and
// opens only the blocks it reads, and a footer is read and parsed once per
// store, not once per query. A block is immutable, so the footer holds for
// as long as the file keeps the size it was verified at; every open checks
// that, and a changed size sends the reader back to the file (see openFile).
// Queries record ft outside the store's lock, hence the atomic.
type blockMeta struct {
	seq  int
	path string
	ft   atomic.Pointer[verifiedFooter]
}

// verifiedFooter is a block's footer and the file size it was checked at.
type verifiedFooter struct {
	size int64
	footer
}

// Open opens (creating if needed) a writable store rooted at cfg.Dir,
// repairing any torn WAL tails left by a crash.
func Open(cfg Config) (*Store, error) {
	cfg.applyDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("archive: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return open(cfg, false)
}

// OpenReadOnly opens an existing store for querying without mutating it:
// no WAL repair, no appends — the form offline tools use on a directory a
// live collector may still own. Read views are rebuilt per query (runs
// and blocks re-listed, the WAL re-scanned), so data the writer sealed
// after Open still appears. A compaction racing a query cannot show the
// sealed tail twice: a WAL whose block is listed is skipped, and one that
// vanished between the listing and its read — sealed since — makes the
// view re-list, for as long as each listing names a newer WAL.
func OpenReadOnly(dir string) (*Store, error) {
	cfg := Config{Dir: dir}
	cfg.applyDefaults()
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return open(cfg, true)
}

func open(cfg Config, readOnly bool) (*Store, error) {
	s := &Store{cfg: cfg, readOnly: readOnly, runs: make(map[string]*runArchive), names: telemetry.Interner{},
		compactSeconds: obs.NewHistogram(latencyBounds...), querySeconds: obs.NewHistogram(latencyBounds...)}
	if err := s.loadRunsLocked(); err != nil {
		return nil, err
	}
	// A view reads its WALs per query, and once here, snapshots too, so a
	// WAL this store did not write fails the open as it fails a writable one
	// (one a live writer sealed since the listing is not such a WAL).
	if readOnly {
		b := new(Block)
		for run, ra := range s.runs {
			if _, err := ra.readWAL(b, new(Watermarks)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("archive: run %q: %w", run, err)
			}
		}
	}
	return s, nil
}

// loadRunsLocked (re)scans the store directory and rebuilds s.runs. A
// writable store runs it once at Open — it owns the directory afterwards,
// so its in-memory state is authoritative. Read-only stores run it again
// per read view (see refreshLocked). Caller holds mu (or is Open, before
// the store escapes).
func (s *Store) loadRunsLocked() error {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	runs := make(map[string]*runArchive, len(ents))
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		run, err := url.PathUnescape(ent.Name())
		if err != nil {
			continue // not a run directory this store wrote
		}
		ra, err := s.openRun(run, filepath.Join(s.cfg.Dir, ent.Name()), s.runs[run])
		if err != nil {
			return fmt.Errorf("archive: run %q: %w", run, err)
		}
		runs[run] = ra
	}
	s.runs = runs
	return nil
}

// refreshLocked re-lists runs and block files from disk in read-only
// mode: the live writer that owns the directory may have added runs or
// sealed WAL bytes into new blocks since Open, and a block list frozen at
// Open would silently drop those events from every query. Writable stores
// skip it. Read-only openRun holds no file handles, so rebuilding leaks
// nothing. Caller holds mu.
func (s *Store) refreshLocked() error {
	if !s.readOnly {
		return nil
	}
	return s.loadRunsLocked()
}

// openRun loads one run directory: block list, then the WAL. A writable
// store settles what a crash left — it removes temp files and spent WALs —
// and scans and repairs the active WAL, folding every WAL's watermarks into
// s.marks; a read-only one changes nothing, since a live writer may be
// mid-compaction, and only notes which WAL holds the tail. A read-only view
// re-listing the run keeps prev's block metas, footers and all, for the
// blocks the listing still shows at the size their footer was verified at.
func (s *Store) openRun(run, dir string, prev *runArchive) (*runArchive, error) {
	ra := &runArchive{dir: dir, run: run, nextSeq: 1}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sealed := map[int]bool{}
	var wals, spent []int
	for _, ent := range ents {
		name := ent.Name()
		if name == legacyWAL {
			return nil, fmt.Errorf("%s: a WAL of a store written before WALs were numbered", name)
		}
		if strings.HasPrefix(name, ".") {
			if !s.readOnly {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return nil, err
				}
			}
		} else if seq, ok := seqOf(name, "", ".blk"); ok {
			ra.blocks = append(ra.blocks, prev.carry(seq, ent, filepath.Join(dir, name)))
			sealed[seq] = true
			ra.nextSeq = max(ra.nextSeq, seq+1)
		} else if seq, ok := seqOf(name, "wal-", ".q"); ok {
			wals = append(wals, seq)
		}
	}
	slices.SortFunc(ra.blocks, func(a, b *blockMeta) int { return cmp.Compare(a.seq, b.seq) })
	for _, seq := range wals {
		switch {
		case sealed[seq]: // compacted, killed before the remove
			spent = append(spent, seq)
		case seq == ra.nextSeq:
			ra.walName = walFile(seq)
		case !s.readOnly:
			// No writer leaves this; a read-only listing racing one can.
			return nil, fmt.Errorf("%s is neither spent nor the next block's WAL", walFile(seq))
		}
	}

	// A read-only view stops here: it holds no handle, and its queries read
	// the WAL themselves (readWAL).
	if s.readOnly {
		ra.spent = len(spent) > 0
		return ra, nil
	}
	// A spent WAL's lines are in its block; its watermarks may be nowhere else.
	b, live := new(Block), ra.walName
	for _, seq := range spent {
		ra.walName = walFile(seq)
		if _, err := ra.readWAL(b, &s.marks); err != nil {
			return nil, err
		}
	}
	ra.walName, ra.spent = live, len(spent) > 0
	if live != "" {
		if ra.wal, err = ra.openWAL(live, os.O_RDWR|os.O_APPEND); err != nil {
			return nil, err
		}
		ra.walBuf = bufio.NewWriterSize(ra.wal, 64<<10)
		valid, err := ra.readWAL(b, &s.marks)
		if err == nil {
			err = ra.wal.Truncate(valid) // drop a torn tail, if any
		}
		if err != nil || valid == 0 { // valid 0: not even its snapshot is whole, so it is rewritten
			ra.wal.Close()
			ra.wal = nil
		}
		if err != nil {
			return nil, err
		}
	}
	if ra.wal == nil {
		if err := ra.startWAL(s.marks.next[run]); err != nil {
			return nil, err
		}
	}
	for _, seq := range spent {
		if err := os.Remove(filepath.Join(dir, walFile(seq))); err != nil {
			return nil, err
		}
	}
	ra.spent = false
	return ra, nil
}

// carry returns prev's meta for block seq when the listing's entry for it
// still has the size its footer was verified at, else a fresh meta for path.
func (prev *runArchive) carry(seq int, ent os.DirEntry, path string) *blockMeta {
	if prev != nil {
		if i, ok := slices.BinarySearchFunc(prev.blocks, seq, func(m *blockMeta, seq int) int { return cmp.Compare(m.seq, seq) }); ok {
			m := prev.blocks[i]
			vf := m.ft.Load()
			if vf == nil {
				return m
			}
			if fi, err := ent.Info(); err == nil && fi.Size() == vf.size {
				return m
			}
		}
	}
	return &blockMeta{seq: seq, path: path}
}

// startWAL makes a new WAL, the one that seals into block ra.nextSeq, ra's
// append handle: the snapshot of marks, the run's watermarks, written under
// a temp name and renamed into place, so no listing shows it without it.
func (ra *runArchive) startWAL(marks map[uint64]uint64) error {
	ra.walName, ra.wal, ra.events, ra.bytes = walFile(ra.nextSeq), nil, 0, 0
	f, err := os.CreateTemp(ra.dir, walTempPrefix+"*")
	if err != nil {
		return err
	}
	// walBuf only coalesces a record's writes into one syscall: every record
	// is flushed as written, so it never holds acknowledged bytes.
	if ra.walBuf == nil {
		ra.walBuf = bufio.NewWriterSize(f, 64<<10)
	}
	ra.walBuf.Reset(f)
	snap := []byte{recSnapshot}
	for session, next := range marks {
		if len(snap) > maxWALRecord-2*binary.MaxVarintLen64 { // it goes on in a second record
			ra.writeRecord(snap, nil) // an error sticks to walBuf, for the last write to return
			snap = snap[:1]
		}
		snap = binary.AppendUvarint(binary.AppendUvarint(snap, session), next)
	}
	if err = ra.writeRecord(snap, nil); err == nil {
		err = os.Rename(f.Name(), filepath.Join(ra.dir, ra.walName))
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	ra.wal = f
	return nil
}

// maxWALRecord bounds one framed WAL record's payload — the same bound
// scanWAL enforces on reopen. An Append past it would persist a record
// the next scan discards as a corrupt tail, silently losing an
// acknowledged batch, so it is refused up front instead.
const maxWALRecord = maxFooterLen

// A WAL record's payload begins with its tag: a snapshot of the run's
// watermarks (uvarint session and next seq per stream; one too long for a
// record goes on in the next), a stream's frame (uvarint session and seq,
// then the batch), or a batch of no stream.
const recSnapshot, recStream, recBatch = 's', 'f', 'b'

// writeRecord frames head and body as one WAL record — uvarint payload
// length, payload, uint32 LE CRC-32C over the payload — and flushes it.
func (ra *runArchive) writeRecord(head, body []byte) error {
	crc := crc32.Update(crc32.Checksum(head, blockCRCTable), blockCRCTable, body)
	ra.walBuf.Write(binary.AppendUvarint(nil, uint64(len(head)+len(body))))
	ra.walBuf.Write(head)
	ra.walBuf.Write(body)
	ra.walBuf.Write(binary.LittleEndian.AppendUint32(nil, crc))
	return ra.walBuf.Flush() // a failed Write sticks to walBuf, and Flush returns it
}

// scanWAL walks records from the start, calling visit with each valid
// one's tag, stream and body, and returns the byte length of the valid
// prefix — after it is a torn tail — and visit's first error. A record
// whose CRC holds but whose tag or stream does not parse, or a first record
// that is not a snapshot, this store did not write: an error, not a tail.
func scanWAL(data []byte, visit func(tag byte, session, seq uint64, body []byte) error) (int64, error) {
	var off int64
	for {
		l, sz := binary.Uvarint(data[off:])
		rem := int64(len(data)) - off - int64(sz)
		// Every record has a tag, so one of length 0 is a zero-filled tail.
		if sz <= 0 || l == 0 || l > uint64(maxWALRecord) || rem < int64(l)+4 {
			return off, nil
		}
		start := off + int64(sz)
		p := data[start : start+int64(l)]
		if crc32.Checksum(p, blockCRCTable) != binary.LittleEndian.Uint32(data[start+int64(l):]) {
			return off, nil
		}
		var session, seq uint64
		ok := off > 0 || p[0] == recSnapshot
		if ok && p[0] == recStream {
			session, seq, p, ok = uvarint2(p[1:])
		} else if ok {
			ok, p = p[0] == recSnapshot || p[0] == recBatch, p[1:]
		}
		if !ok {
			return off, fmt.Errorf("the record at byte %d is not one this store writes", off)
		}
		if err := visit(data[start], session, seq, p); err != nil {
			return off, err
		}
		off = start + int64(l) + 4
	}
}

// uvarint2 splits two uvarints off the front of b.
func uvarint2(b []byte) (x, y uint64, rest []byte, ok bool) {
	x, n := binary.Uvarint(b)
	y, m := binary.Uvarint(b[max(n, 0):])
	return x, y, b[max(n, 0)+max(m, 0):], n > 0 && m > 0
}

// openWAL is the one place a WAL file is opened: read-write by the store
// that owns the directory, once per Open; otherwise read-only, per read.
func (ra *runArchive) openWAL(name string, flag int) (*os.File, error) {
	return os.OpenFile(filepath.Join(ra.dir, name), flag, 0)
}

// readWAL reads ra's WAL into b — one read, one CRC scan (see scanWAL) —
// leaving the file's bytes in b.wal and its journal lines, in admission
// order and each a sub-slice of b.wal, in b.walLines, both good until b's
// next read; it returns the byte length of the file's valid prefix, and
// counts its events and batch bytes in ra.events and ra.bytes. It is the only reader of the file, for queries,
// compaction and counting alike: the store that owns the directory flushes
// and reads through the handle it appends with, a read-only view opens the
// file for this one read, and re-reading it (rather than trusting counters)
// keeps such a view honest about a WAL a live writer may have appended to
// or sealed since. A run with no WAL file listed has an empty one; a listed
// one that has vanished is an os.ErrNotExist error (see snapshot). Unless
// fold is non-nil, to take every watermark the WAL records, snapshots are
// skipped undecoded. Caller holds mu.
func (ra *runArchive) readWAL(b *Block, fold *Watermarks) (valid int64, err error) {
	b.walLines = b.walLines[:0]
	f := ra.wal
	if f == nil {
		if ra.walName == "" {
			return 0, nil
		}
		if f, err = ra.openWAL(ra.walName, os.O_RDONLY); err != nil {
			return 0, err
		}
		defer f.Close()
	} else if err = ra.walBuf.Flush(); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	b.wal = sized(b.wal, int(fi.Size()))
	// A short read is a writer's Open cutting a torn tail under a read-only
	// view: what was read is scanned like any other torn tail.
	n, err := f.ReadAt(b.wal, 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	var payload int64
	valid, err = scanWAL(b.wal[:n], func(tag byte, session, seq uint64, p []byte) error {
		switch {
		case fold != nil && tag == recStream:
			fold.advance(ra.run, session, seq+1)
		case fold != nil && tag == recSnapshot:
			for rest := p; len(rest) > 0; {
				var ok bool
				if session, seq, rest, ok = uvarint2(rest); !ok {
					return errors.New("a snapshot that does not parse")
				}
				fold.advance(ra.run, session, seq)
			}
		}
		if tag == recSnapshot {
			return nil
		}
		payload += int64(len(p))
		for len(p) > 0 {
			end := bytes.IndexByte(p, '\n') + 1
			if end == 0 {
				end = len(p)
			}
			b.walLines = append(b.walLines, p[:end])
			p = p[end:]
		}
		return nil
	})
	if err == nil && valid == 0 && !ra.spent {
		err = errors.New("does not begin with a watermark snapshot")
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", ra.walName, err)
	}
	ra.events, ra.bytes = len(b.walLines), payload
	return valid, nil
}

// runLocked returns (creating if needed) the named run's archive. Caller
// holds mu.
func (s *Store) runLocked(run string, create bool) (*runArchive, error) {
	if ra, ok := s.runs[run]; ok {
		return ra, nil
	}
	if !create {
		return nil, fmt.Errorf("archive: unknown run %q", run)
	}
	if s.readOnly {
		return nil, ErrReadOnly
	}
	dir := filepath.Join(s.cfg.Dir, url.PathEscape(run))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ra, err := s.openRun(run, dir, nil)
	if err != nil {
		return nil, err
	}
	s.runs[run] = ra
	return ra, nil
}

// Admit archives batch as frame seq of stream (run, session), as Append
// does, unless seq is below the stream's watermark (dup). The WAL record
// holding the batch advances the watermark, as durable as the batch.
func (s *Store) Admit(run string, session, seq uint64, batch []byte) (dup bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.marks.next[run][session] {
		return true, nil
	}
	return false, s.appendLocked(run, true, session, seq, batch)
}

// Append archives one event batch for run, of no stream: whole canonical
// journal JSONL lines, or the batch is refused and nothing written. The
// batch is on the WAL file with the OS (not necessarily the platter) when
// Append returns nil: the framed record is flushed before returning, never
// parked in a userspace buffer, because a nil return is the collector's cue
// to ACK the frame and the shipper then drops its only other copy. A
// non-nil error means the batch was NOT archived and the caller must not
// acknowledge it upstream. A seal the batch trips runs after the batch is
// on the WAL, so its failure does not fail the batch: it sticks to the run
// instead, and every later Append or Compact of the run returns it before
// writing anything. Append does not retain batch.
func (s *Store) Append(run string, batch []byte) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(run, false, 0, 0, batch)
}

// appendLocked is Append, or Admit's write when stream is set. Caller holds mu.
func (s *Store) appendLocked(run string, stream bool, session, seq uint64, batch []byte) error {
	head := []byte{recBatch}
	if stream {
		head = binary.AppendUvarint(binary.AppendUvarint([]byte{recStream}, session), seq)
	}
	if len(head)+len(batch) > maxWALRecord {
		return fmt.Errorf("archive: %d-byte batch exceeds the %d-byte WAL record limit", len(batch), maxWALRecord)
	}
	if s.readOnly {
		return ErrReadOnly
	}
	// Every line, newline included, must be one ParseJSONL accepts; a last
	// line without its newline leaves the empty line, which it refuses.
	events := 0
	for rest := batch; len(rest) > 0; events++ {
		end := bytes.IndexByte(rest, '\n') + 1
		if _, ok := s.names.ParseJSONL(rest[:end]); !ok {
			return fmt.Errorf("archive: line %d of the batch: %w", events+1, telemetry.ErrNotCanonical)
		}
		rest = rest[end:]
	}
	ra, err := s.runLocked(run, true)
	if err != nil {
		return err
	}
	if ra.wal == nil { // closed, or a compaction failed to start its successor
		return fmt.Errorf("archive: run %q has no open WAL", run)
	}
	if ra.sealErr != nil {
		return ra.sealErr
	}
	if err := ra.writeRecord(head, batch); err != nil {
		return err
	}
	if stream { // before any seal below, whose next WAL's snapshot must hold it
		s.marks.advance(run, session, seq+1)
	}
	ra.events += events
	ra.bytes += int64(len(batch))
	if ra.events >= s.cfg.CompactEvents || ra.bytes >= s.cfg.CompactBytes {
		if err := s.compactLocked(ra); err != nil {
			// Formatted, not wrapped: a refusal of the run is no verdict
			// on the batches that meet it.
			ra.sealErr = fmt.Errorf("archive: run %q refuses writes: sealing its WAL failed: %v", run, err)
		}
	}
	return nil
}

// Compact seals run's WAL tail into a block now, regardless of thresholds
// — what a shutdown or an explicit flush-before-heavy-queries calls. A
// run with an empty WAL is a no-op.
func (s *Store) Compact(run string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	ra, ok := s.runs[run]
	if !ok {
		return fmt.Errorf("archive: unknown run %q", run)
	}
	return s.compactLocked(ra)
}

// CompactAll seals every run's WAL tail, in run order, and returns every
// failure joined: a run whose seal fails leaves no other run unsealed.
func (s *Store) CompactAll() error {
	if s.readOnly {
		return ErrReadOnly
	}
	var errs []error
	for _, run := range s.Runs() {
		errs = append(errs, s.Compact(run))
	}
	return errors.Join(errs...)
}

// compactLocked rewrites ra's WAL as its block, atomically (write temp,
// fsync, rename), then starts the next block's WAL and removes the sealed
// one. Caller holds mu.
func (s *Store) compactLocked(ra *runArchive) error {
	if ra.sealErr != nil {
		return ra.sealErr
	}
	if ra.events == 0 {
		return nil
	}
	start := time.Now()
	clear(s.names)
	// Read into a reader of its own, not an idle one: a WAL-sized buffer kept
	// live between compactions doubles the heap the collector's GC aims for.
	var b Block
	if _, err := ra.readWAL(&b, nil); err != nil {
		return err
	}
	blk, ft, err := encodeBlock(ra.run, b.walLines)
	if err != nil {
		return err
	}
	path := filepath.Join(ra.dir, blockFile(ra.nextSeq))
	tmp, err := os.CreateTemp(ra.dir, blockTempPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blk); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// The block is durable and the WAL is spent: from here a crash leaves a
	// WAL whose block exists, whose lines Open never reads twice — it takes
	// the watermarks from it, and deletes it once the next WAL holds them.
	m := &blockMeta{seq: ra.nextSeq, path: path}
	m.ft.Store(&verifiedFooter{size: int64(len(blk)), footer: *ft})
	ra.blocks = append(ra.blocks, m)
	ra.nextSeq++
	sealed, spent := ra.wal, filepath.Join(ra.dir, ra.walName)
	err = ra.startWAL(s.marks.next[ra.run])
	sealed.Close()
	if err == nil {
		err = os.Remove(spent)
	}
	if err != nil {
		return err
	}
	s.compactSeconds.Observe(time.Since(start).Seconds())
	s.sealedBytes += int64(len(blk))
	s.sealedRows += int64(ft.Rows)
	return nil
}

// Runs returns the runs present, sorted. A read-only store re-lists the
// directory first (best effort — a racing writer can still win), so runs
// created since Open appear.
func (s *Store) Runs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.refreshLocked()
	runs := make([]string, 0, len(s.runs))
	for run := range s.runs {
		runs = append(runs, run)
	}
	sort.Strings(runs)
	return runs
}

// Streams returns how many streams hold a watermark in a writable store.
func (s *Store) Streams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.marks.Streams()
}

// RunStats summarizes one run's storage.
type RunStats struct {
	Run        string `json:"run"`
	Blocks     int    `json:"blocks"`
	BlockBytes int64  `json:"block_bytes"`
	WALEvents  int    `json:"wal_events"`
	WALBytes   int64  `json:"wal_bytes"`
}

// Stats returns per-run storage stats, sorted by run. Like Runs, a
// read-only store refreshes its view of the directory first.
func (s *Store) Stats() []RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.refreshLocked()
	out := make([]RunStats, 0, len(s.runs))
	var b Block
	for run, ra := range s.runs {
		if s.readOnly {
			_, _ = ra.readWAL(&b, nil) // best effort, like the refresh
		}
		st := RunStats{Run: run, Blocks: len(ra.blocks), WALEvents: ra.events, WALBytes: ra.bytes}
		for _, m := range ra.blocks {
			if fi, err := os.Stat(m.path); err == nil {
				st.BlockBytes += fi.Size()
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

// WriteMetrics writes the store's metric families: how long compactions
// have taken — each runs under the store's lock, inside the Append whose ACK
// it delays — what they sealed, and how many events sit in WAL tails, not
// yet sealed; how long queries have taken, and how many blocks they opened
// and pruned unopened.
func (s *Store) WriteMetrics(w *obs.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	walEvents := 0
	for _, ra := range s.runs {
		walEvents += ra.events
	}
	w.Histogram("bba_archive_compact_seconds", "Wall time of WAL-to-block compactions.", &s.compactSeconds)
	w.Counter("bba_archive_sealed_bytes_total", "Block file bytes written by compactions.", float64(s.sealedBytes))
	w.Counter("bba_archive_sealed_rows_total", "Events sealed into blocks by compactions.", float64(s.sealedRows))
	w.Gauge("bba_archive_wal_events", "Events in WAL tails, awaiting compaction.", float64(walEvents))
	w.Histogram("bba_archive_query_seconds", "Wall time of Aggregate, Scan and Export queries.", &s.querySeconds)
	w.CounterVec("bba_archive_query_blocks_total", "Blocks queries opened (read) and skipped unopened on their held footer (pruned).", "outcome",
		map[string]int64{"read": s.blocksRead, "pruned": s.blocksPruned})
}

// snapshot captures a run's read view, consistent at one instant, into b —
// the query's reader: the immutable blocks' metas in b.blocks, and the WAL
// tail, whose walLines hold it until release. Read-only stores
// re-list the directory first so blocks a live writer sealed — and runs it
// created — since Open are included rather than silently dropped; when the
// WAL the listing named has vanished before its read, a compaction sealed
// it since, and the view re-lists to pick up its block — again while each
// re-list names a newer WAL, since every such vanishing is a compaction
// that a busy writer can finish between any listing and its read.
func (s *Store) snapshot(run string, b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for gone := ""; ; {
		if err := s.refreshLocked(); err != nil {
			return err
		}
		ra, ok := s.runs[run]
		if !ok {
			return fmt.Errorf("archive: unknown run %q", run)
		}
		_, err := ra.readWAL(b, nil)
		if errors.Is(err, os.ErrNotExist) && s.readOnly && ra.walName != gone {
			gone = ra.walName
			continue
		}
		if err != nil {
			return err
		}
		b.blocks = append(b.blocks[:0], ra.blocks...)
		return nil
	}
}

// Export writes run's full archived journal — blocks in admission order,
// then the WAL tail — to w. The output is byte-identical to the
// concatenation of every batch Append accepted for the run.
func (s *Store) Export(run string, w io.Writer) error {
	b := s.reader()
	defer s.release(b)
	if err := s.snapshot(run, b); err != nil {
		return err
	}
	err := s.walk(b, nil, func(blk *Block) (bool, error) {
		return true, blk.render()
	}, func(blk *Block) (bool, error) {
		return true, blk.writeLines(w)
	})
	if err != nil {
		return err
	}
	b.line = b.line[:0] // the tail goes out in pieces too, not a write a line
	for _, line := range b.walLines {
		p := b.piece(len(line))
		*p = append(*p, line...)
	}
	return b.writeLines(w)
}

// Close flushes every WAL buffer. Blocks need nothing: they are only ever
// complete or absent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.idle)
	s.idle = nil
	var first error
	for _, ra := range s.runs {
		if ra.wal == nil {
			continue
		}
		if err := ra.walBuf.Flush(); err != nil && first == nil {
			first = err
		}
		if err := ra.wal.Close(); err != nil && first == nil {
			first = err
		}
		ra.wal, ra.walBuf = nil, nil
	}
	return first
}
