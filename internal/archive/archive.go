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
//	<dir>/<run>/000001.blk   immutable columnar blocks, in admission order
//	<dir>/<run>/000002.blk
//	<dir>/<run>/wal.q        the active WAL tail: CRC-framed JSONL batches
//
// Writes append to the WAL; once the WAL holds CompactEvents events (or
// CompactBytes bytes) it is rewritten as the next numbered block and
// truncated. Every byte is always in exactly one of the two forms, so
// Export — blocks in order, then the WAL tail — reproduces the admitted
// journal byte for byte, the losslessness contract the tests pin.
//
// Crash recovery: Open scans each run's WAL and truncates it at the first
// damaged record (a torn tail write loses only the un-acknowledged
// suffix), then appends after it. Blocks are immutable and self-verifying
// (CRC per column page, CRC'd footer), so they need no repair pass.
package archive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// walName is the active WAL file inside a run directory.
const walName = "wal.q"

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

// Store is the archive: Append feeds admitted event batches in, the query
// layer (Scan, Aggregate, Export) reads blocks plus the live WAL tail.
// Safe for concurrent use. Append implements the collector's Archiver
// seam, so a Store can be wired directly into collect.CollectorConfig.
type Store struct {
	cfg      Config
	readOnly bool

	mu   sync.Mutex
	runs map[string]*runArchive
	// spare is the block reader the last query finished with — its page
	// buffer and slabs, never decoded data or an open file — so the next
	// query starts with slabs already sized. One, not a pool: a query that
	// finds it taken makes its own, and the last to finish leaves its.
	spare *Block
}

// runArchive is one run's slice of the store.
type runArchive struct {
	dir     string
	run     string
	blocks  []string // block file paths, in block-sequence order
	nextSeq int
	wal     *os.File
	walBuf  *bufio.Writer
	events  int   // events in the WAL
	bytes   int64 // payload bytes in the WAL
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
// after Open still appears. The one caveat of reading a live directory
// without coordination: a compaction racing a query can transiently show
// the sealed tail twice (block renamed, WAL not yet truncated). Reads of
// a quiescent directory are exact.
func OpenReadOnly(dir string) (*Store, error) {
	cfg := Config{Dir: dir}
	cfg.applyDefaults()
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return open(cfg, true)
}

func open(cfg Config, readOnly bool) (*Store, error) {
	s := &Store{cfg: cfg, readOnly: readOnly, runs: make(map[string]*runArchive)}
	if err := s.loadRunsLocked(); err != nil {
		return nil, err
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
		ra, err := s.openRun(run, filepath.Join(s.cfg.Dir, ent.Name()))
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

// openRun loads one run directory: block list, then WAL scan/repair.
func (s *Store) openRun(run, dir string) (*runArchive, error) {
	ra := &runArchive{dir: dir, run: run}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		var seq int
		if _, err := fmt.Sscanf(name, "%06d.blk", &seq); err != nil || fmt.Sprintf("%06d.blk", seq) != name {
			continue
		}
		ra.blocks = append(ra.blocks, filepath.Join(dir, name))
		if seq >= ra.nextSeq {
			ra.nextSeq = seq + 1
		}
	}
	sort.Strings(ra.blocks) // zero-padded names: lexical == numeric order
	if ra.nextSeq == 0 {
		ra.nextSeq = 1
	}

	// A read-only view stops here: its queries read the WAL themselves
	// (walLinesLocked), and only Stats wants it counted.
	if s.readOnly {
		return ra, nil
	}
	valid, err := ra.countWAL()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil { // drop a torn tail, if any
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	ra.wal = f
	// walBuf only coalesces one record's three writes (header, payload,
	// CRC) into a single syscall; Append flushes it before returning, so
	// it never holds bytes the collector has already acknowledged.
	ra.walBuf = bufio.NewWriterSize(f, 64<<10)
	return ra, nil
}

// maxWALRecord bounds one framed WAL record's payload — the same bound
// scanWAL enforces on reopen. An Append past it would persist a record
// the next scan discards as a corrupt tail, silently losing an
// acknowledged batch, so it is refused up front instead.
const maxWALRecord = maxFooterLen

// WAL record framing: uvarint payload length, payload, uint32 LE CRC-32C
// over the payload. scanWAL walks records from the start, calling visit
// for each valid one, and returns the byte length of the valid prefix —
// everything after it is a torn or corrupt tail.
func scanWAL(data []byte, visit func(payload []byte)) int64 {
	var off int64
	for {
		l, sz := binary.Uvarint(data[off:])
		rem := int64(len(data)) - off - int64(sz)
		if sz <= 0 || l > uint64(maxWALRecord) || rem < int64(l)+4 {
			return off
		}
		start := off + int64(sz)
		payload := data[start : start+int64(l)]
		want := binary.LittleEndian.Uint32(data[start+int64(l):])
		if crc32.Checksum(payload, blockCRCTable) != want {
			return off
		}
		visit(payload)
		off = start + int64(l) + 4
	}
}

// readWAL reads ra's WAL file and walks its intact records (see scanWAL),
// returning the byte length of the valid prefix. The payloads visit sees
// are sub-slices of the one private buffer read here, so they stay good
// after the call. A run with no WAL file yet has an empty one.
func (ra *runArchive) readWAL(visit func(payload []byte)) (valid int64, err error) {
	data, err := os.ReadFile(filepath.Join(ra.dir, walName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	return scanWAL(data, visit), nil
}

// countWAL sets ra.events and ra.bytes from the WAL file.
func (ra *runArchive) countWAL() (valid int64, err error) {
	ra.events, ra.bytes = 0, 0
	return ra.readWAL(func(payload []byte) {
		ra.events += bytes.Count(payload, []byte{'\n'})
		ra.bytes += int64(len(payload))
	})
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
	ra, err := s.openRun(run, dir)
	if err != nil {
		return nil, err
	}
	s.runs[run] = ra
	return ra, nil
}

// Append archives one admitted event batch — whole journal JSONL lines,
// newline-terminated — for run. The batch is on the WAL file with the OS
// (not necessarily the platter) when Append returns nil: the framed
// record is flushed before returning, never parked in a userspace buffer,
// because a nil return is the collector's cue to ACK the frame and the
// shipper then drops its only other copy. A non-nil error means the batch
// was NOT archived and the caller must not acknowledge it upstream.
// Append does not retain batch.
func (s *Store) Append(run string, batch []byte) error {
	if len(batch) == 0 {
		return nil
	}
	if batch[len(batch)-1] != '\n' {
		return fmt.Errorf("archive: batch must be newline-terminated JSONL")
	}
	if len(batch) > maxWALRecord {
		return fmt.Errorf("archive: %d-byte batch exceeds the %d-byte WAL record limit", len(batch), maxWALRecord)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	ra, err := s.runLocked(run, true)
	if err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(batch)))
	if _, err := ra.walBuf.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := ra.walBuf.Write(batch); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(batch, blockCRCTable))
	if _, err := ra.walBuf.Write(crc[:]); err != nil {
		return err
	}
	ra.events += bytes.Count(batch, []byte{'\n'})
	ra.bytes += int64(len(batch))
	if ra.events >= s.cfg.CompactEvents || ra.bytes >= s.cfg.CompactBytes {
		return s.compactLocked(ra) // flushes via walLinesLocked
	}
	return ra.walBuf.Flush()
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

// CompactAll seals every run's WAL tail.
func (s *Store) CompactAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	for _, ra := range s.runs {
		if err := s.compactLocked(ra); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites ra's WAL as the next numbered block, atomically
// (write temp, fsync, rename), then truncates the WAL. Caller holds mu.
func (s *Store) compactLocked(ra *runArchive) error {
	if ra.events == 0 {
		return nil
	}
	lines, err := ra.walLinesLocked()
	if err != nil {
		return err
	}
	blk, err := encodeBlock(ra.run, lines)
	if err != nil {
		return err
	}
	path := filepath.Join(ra.dir, fmt.Sprintf("%06d.blk", ra.nextSeq))
	tmp, err := os.CreateTemp(ra.dir, ".blk-*")
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
	ra.nextSeq++
	ra.blocks = append(ra.blocks, path)
	// The block is durable; the WAL bytes are now redundant.
	if err := ra.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := ra.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	ra.walBuf.Reset(ra.wal)
	ra.events, ra.bytes = 0, 0
	return nil
}

// walLinesLocked flushes and re-reads ra's WAL — one read, one scan —
// returning its journal lines in admission order, each a sub-slice of the
// buffer just read and so the caller's to keep. Re-scanning the file
// (rather than trusting counters) keeps read-only stores honest about a
// WAL a live writer may have appended to or truncated since Open;
// refreshLocked does the same for the block list. Caller holds mu: a
// compaction may truncate the file.
func (ra *runArchive) walLinesLocked() ([][]byte, error) {
	if ra.wal != nil {
		if err := ra.walBuf.Flush(); err != nil {
			return nil, err
		}
	}
	var lines [][]byte
	_, err := ra.readWAL(func(payload []byte) {
		for len(payload) > 0 {
			nl := bytes.IndexByte(payload, '\n')
			if nl < 0 {
				lines = append(lines, payload)
				return
			}
			lines = append(lines, payload[:nl+1])
			payload = payload[nl+1:]
		}
	})
	return lines, err
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
	for run, ra := range s.runs {
		if s.readOnly {
			_, _ = ra.countWAL() // best effort, like the refresh
		}
		st := RunStats{Run: run, Blocks: len(ra.blocks), WALEvents: ra.events, WALBytes: ra.bytes}
		for _, p := range ra.blocks {
			if fi, err := os.Stat(p); err == nil {
				st.BlockBytes += fi.Size()
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

// snapshot captures a run's read view: immutable block paths plus the WAL
// tail's lines, consistent at one instant. Read-only stores re-list the
// directory first so blocks a live writer sealed — and runs it created —
// since Open are included rather than silently dropped.
func (s *Store) snapshot(run string) (blocks []string, walLines [][]byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, nil, err
	}
	ra, ok := s.runs[run]
	if !ok {
		return nil, nil, fmt.Errorf("archive: unknown run %q", run)
	}
	walLines, err = ra.walLinesLocked()
	if err != nil {
		return nil, nil, err
	}
	return append([]string(nil), ra.blocks...), walLines, nil
}

// reader hands out the store's spare block reader, or a new one while
// another query holds it; release closes b and keeps it for the next query.
func (s *Store) reader() *Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.spare
	s.spare = nil
	if b == nil {
		b = new(Block)
	}
	return b
}

func (s *Store) release(b *Block) {
	b.close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spare = b
}

// Export writes run's full archived journal — blocks in admission order,
// then the WAL tail — to w. The output is byte-identical to the
// concatenation of every batch Append accepted for the run.
func (s *Store) Export(run string, w io.Writer) error {
	blocks, walLines, err := s.snapshot(run)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 256<<10)
	b := s.reader()
	defer s.release(b)
	for _, path := range blocks {
		if err := b.openFile(path); err != nil {
			return err
		}
		if err := b.Export(bw); err != nil {
			return err
		}
	}
	for _, line := range walLines {
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Close flushes every WAL buffer. Blocks need nothing: they are only ever
// complete or absent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spare = nil
	var first error
	for _, ra := range s.runs {
		if ra.walBuf == nil {
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
