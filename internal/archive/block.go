package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"bba/internal/telemetry"
)

// Block format, version 3 (all integers little-endian):
//
//	magic   [4]byte  "BBAC"
//	version uint8    3
//	pages   ...      each page is payload bytes + uint32 CRC-32C(payload)
//	footer  JSON     locates the pages and summarizes the block; its
//	                 "version" repeats the header's
//	fcrc    uint32   CRC-32C over the footer JSON
//	flen    uint32   footer JSON length
//	magic   [4]byte  "BBAE"
//
// Pages, in file order:
//
//	kind, session, label   dictionary columns: uvarint entry count, each
//	                       entry uvarint length + bytes, then the rows
//	<int columns>          one page per telemetry.IntColumns entry: the rows
//	raw                    one zero byte under the footer's "raws":0: the
//	                       page of verbatim lines the archive no longer
//	                       admits, kept so that version 3 keeps its bytes
//
// A column page's rows open with a mode byte, then a change bitmap —
// ⌈rows/8⌉ bytes, bit i%8 of byte i/8 set when row i differs from its
// prediction — then one uvarint per set bit. A row whose bit is clear is its
// prediction. The mode byte has two bits:
//
//	byKind   the predictor: clear, the row before; set, the last row with
//	         the same context — the row's kind-dictionary index, or, on the
//	         kind page itself, the kind of the row before, so that page
//	         stores what followed that kind the last time. A context's first
//	         row, and row 0 under either predictor, predicts 0.
//	asDelta  the coding: clear, the value — the dictionary index for kind,
//	         session and label, zigzag(v) for the integers; set,
//	         zigzag(v − prediction).
//
// encodeBlock sizes all four modes of a column in one pass and writes the
// smallest, so no page is longer than the same column coded as version 2
// coded it — every row predicted from the row before, at_ns and chunk as
// deltas, the rest as values — plus the mode byte, whatever the traffic.
// Most columns repeat from event to event (a session's label, its
// reservoir, the buffer level across one chunk's events), so most rows cost
// one bit. The journal interleaves kinds that set disjoint fields — a
// request carries no duration, a sample no throughput — so against the row
// before such a field leaves zero and comes back at every change of kind, a
// varint each way; against the last row of its kind it repeats.
//
// The reader reads version 3 only, the one version the encoder writes: a
// block of any other version, or whose footer counts raw rows, is refused as
// ErrBadBlock, naming it. A column page's payload must be used up exactly;
// the raw page must be one byte long, and is never read.
//
// The footer carries the block key — run, row count, [min,max] at_ns
// window — plus the kind names and session groups present, so readers
// prune whole blocks from a 12-byte tail read and one footer parse without
// touching any column page.
const (
	blockVersion = 3
	// blockTailLen is fcrc + flen + end magic.
	blockTailLen = 4 + 4 + 4
	// maxFooterLen bounds what a decoder will allocate for a footer, so a
	// corrupt length field cannot demand unbounded memory.
	maxFooterLen = 16 << 20
)

var (
	blockMagic    = []byte("BBAC")
	blockEndMagic = []byte("BBAE")
	blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

	// ErrBadBlock reports a structurally invalid or corrupt block file.
	ErrBadBlock = errors.New("archive: bad block")
)

// pageInfo locates one page's payload inside the block file.
type pageInfo struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
}

// footer is the block's index, serialized as JSON at the tail.
type footer struct {
	Version int        `json:"version"`
	Run     string     `json:"run"`
	Rows    int        `json:"rows"`
	MinAtNS int64      `json:"min_at_ns"`
	MaxAtNS int64      `json:"max_at_ns"`
	Kinds   []string   `json:"kinds"`
	Groups  []string   `json:"groups"`
	Raws    int        `json:"raws"`
	Pages   []pageInfo `json:"pages"`
}

// zigzag maps signed to unsigned so small-magnitude values of either sign
// stay short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of u's uvarint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// mode is a column page's leading byte (see the format comment).
type mode uint8

const (
	byKind  mode = 1 << iota // predict from the last row of the context
	asDelta                  // store zigzag(v − prediction)
	// modes counts the modes; a mode byte at or above it is undefined.
	modes
)

// column is one column page's rows as encodeBlock renders them, with what a
// by-kind prediction reads: each row's context — its kind-dictionary index,
// or on the kind page the one before (see follows) — and a scratch table
// with an entry for every context.
type column struct {
	rows, ctx, last []int64
	dict            bool // the rows are dictionary indexes, stored as is
}

// follows returns the kind page's contexts: row i's is row i−1's kind, and
// row 0's is entries, a spare table entry no other row names, so that row 0
// predicts 0 as every context's first row does.
func follows(kinds []int64, entries int) []int64 {
	ctx := make([]int64, len(kinds))
	if len(ctx) > 0 {
		ctx[0] = int64(entries)
		copy(ctx[1:], kinds)
	}
	return ctx
}

// value is what the value coding stores for v.
func (c *column) value(v int64) uint64 {
	if c.dict {
		return uint64(v)
	}
	return zigzag(v)
}

// appendTo renders the column's rows under whichever mode makes them
// smallest. The bitmap is the same length in every mode, so the varints
// decide, and one pass sizes all four.
func (c *column) appendTo(dst []byte) []byte {
	var size [modes]int
	clear(c.last)
	var prev int64
	for i, v := range c.rows {
		k := c.ctx[i]
		p := c.last[k]
		if v == prev && v == p {
			continue // a clear bit in every mode, and the table stands
		}
		n := uvarintLen(c.value(v))
		if v != prev {
			size[0] += n
			size[asDelta] += uvarintLen(zigzag(v - prev))
			prev = v
		}
		if v != p {
			size[byKind] += n
			size[byKind|asDelta] += uvarintLen(zigzag(v - p))
			c.last[k] = v
		}
	}
	best := mode(0)
	for m := range modes {
		if size[m] < size[best] {
			best = m
		}
	}
	return c.render(dst, best)
}

// render appends the rows as a page of mode m: the mode byte, the change
// bitmap, and one uvarint per row that differs from its prediction.
func (c *column) render(dst []byte, m mode) []byte {
	dst = append(dst, byte(m))
	bitmap := len(dst)
	dst = append(dst, make([]byte, (len(c.rows)+7)/8)...)
	clear(c.last)
	kinds, delta := m&byKind != 0, m&asDelta != 0
	var prev int64
	for i := 0; i < len(c.rows); i += 8 {
		var bits byte
		for j, v := range c.rows[i:min(i+8, len(c.rows))] {
			p := prev
			if kinds {
				p = c.last[c.ctx[i+j]]
			}
			if v != p {
				bits |= 1 << j
				u := c.value(v)
				if delta {
					u = zigzag(v - p)
				}
				dst = binary.AppendUvarint(dst, u)
				if kinds {
					c.last[c.ctx[i+j]] = v
				}
			}
			prev = v
		}
		dst[bitmap+i/8] = bits
	}
	return dst
}

// pageRows is the one page decoder: it fills dst from p, the rows of a
// column page past its mode byte — the change bitmap, then the changed rows
// — predicted and coded as m says (see the format comment). A by-kind page
// predicts row i from last[ctx[i]] — or, with ctx nil, from last[the row
// before], as the kind page does — and last must arrive zeroed. entries > 0
// makes p a dictionary page, whose values are the index and whose every row
// must be below entries; an integer page's values are zigzag(v). It reports
// false, never panics, on a page that does not hold exactly len(dst) rows —
// too few, or bytes left over — or names a context outside last.
func pageRows[T uint32 | int64](dst []T, p []byte, m mode, ctx []uint32, last []int64, entries uint64) bool {
	nb := (len(dst) + 7) / 8
	if len(p) < nb {
		return false
	}
	changed := p[:nb]
	r := rowReader{p: p[nb:], delta: m&asDelta != 0, entries: entries}
	var prev int64
	if m&byKind == 0 {
		for i := 0; i < len(dst); i += 8 {
			row, bm := dst[i:min(i+8, len(dst))], changed[i/8]
			for j := range row {
				if bm&(1<<j) != 0 {
					u, sz := uint64(0), 1
					if len(r.p) > 0 && r.p[0] < 0x80 {
						u = uint64(r.p[0])
					} else if u, sz = binary.Uvarint(r.p); sz <= 0 {
						return false
					}
					r.p = r.p[sz:]
					var ok bool
					if prev, ok = r.value(u, prev); !ok {
						return false
					}
				}
				row[j] = T(prev)
			}
		}
		return len(r.p) == 0
	}
	if ctx == nil {
		return kindRows(dst, changed, &r, last)
	}
	if len(ctx) < len(dst) {
		return false
	}
	for i := 0; i < len(dst); i += 8 {
		row, kinds, bm := dst[i:min(i+8, len(dst))], ctx[i:min(i+8, len(dst))], changed[i/8]
		for j, k := range kinds {
			if int(k) >= len(last) {
				return false
			}
			v := last[k]
			if bm&(1<<j) != 0 {
				u, sz := uint64(0), 1
				if len(r.p) > 0 && r.p[0] < 0x80 {
					u = uint64(r.p[0])
				} else if u, sz = binary.Uvarint(r.p); sz <= 0 {
					return false
				}
				r.p = r.p[sz:]
				var ok bool
				if v, ok = r.value(u, v); !ok {
					return false
				}
				last[k] = v
			}
			row[j] = T(v)
		}
	}
	return len(r.p) == 0
}

// kindRows is pageRows for a by-kind page predicting from itself, as the
// kind page does: row i's context is row i−1, and row 0 predicts 0.
func kindRows[T uint32 | int64](dst []T, changed []byte, r *rowReader, last []int64) bool {
	k := -1
	for i := 0; i < len(dst); i += 8 {
		row, bm := dst[i:min(i+8, len(dst))], changed[i/8]
		for j := range row {
			v := int64(0)
			if k >= 0 {
				v = last[k]
			}
			if bm&(1<<j) != 0 {
				u, sz := uint64(0), 1
				if len(r.p) > 0 && r.p[0] < 0x80 {
					u = uint64(r.p[0])
				} else if u, sz = binary.Uvarint(r.p); sz <= 0 {
					return false
				}
				r.p = r.p[sz:]
				var ok bool
				if v, ok = r.value(u, v); !ok {
					return false
				}
				if k >= 0 {
					last[k] = v
				}
			}
			row[j] = T(v)
			// v is the next row's context, so it must name a table entry.
			if uint64(v) >= uint64(len(last)) && i+j+1 < len(dst) {
				return false
			}
			k = int(v)
		}
	}
	return len(r.p) == 0
}

// rowReader reads a page's changed rows, one uvarint each, in order. The
// row loops read each uvarint themselves, a one-byte one first: a call per
// changed row, or binary.Uvarint for the one byte most rows take, costs a
// scan 5–20 %.
type rowReader struct {
	p       []byte
	delta   bool   // the page stores zigzag(v − prediction)
	entries uint64 // > 0: a dictionary page, values are indexes below it
}

// value is the row that u, as the page stores it, makes of prediction pred.
// It reports false on an index outside the dictionary.
func (r *rowReader) value(u uint64, pred int64) (int64, bool) {
	if r.delta {
		v := pred + unzigzag(u)
		return v, r.entries == 0 || uint64(v) < r.entries
	}
	if r.entries > 0 {
		return int64(u), u < r.entries
	}
	return unzigzag(u), true
}

// dictBuilder interns strings into first-appearance dictionary order.
type dictBuilder struct {
	index   map[string]int64
	entries []string
	rows    []int64
}

// newDictBuilder returns a builder with room for rows row indexes.
func newDictBuilder(rows int) *dictBuilder {
	return &dictBuilder{index: make(map[string]int64), rows: make([]int64, 0, rows)}
}

func (d *dictBuilder) add(s string) {
	idx, ok := d.index[s]
	if !ok {
		idx = int64(len(d.entries))
		d.index[s] = idx
		d.entries = append(d.entries, s)
	}
	d.rows = append(d.rows, idx)
}

// head appends the page's entries: their count, then each length-prefixed.
func (d *dictBuilder) head(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.entries)))
	for _, e := range d.entries {
		dst = binary.AppendUvarint(dst, uint64(len(e)))
		dst = append(dst, e...)
	}
	return dst
}

// encodeBlock renders one immutable block from journal lines in admission
// order, and returns the footer it wrote. Every line must be canonical, as
// Append admits them; any other fails the seal with an error that is not
// telemetry.ErrNotCanonical, which means a batch was refused unwritten.
func encodeBlock(run string, lines [][]byte) ([]byte, *footer, error) {
	intCols := telemetry.IntColumns()
	n := len(lines)
	kind, session, label := newDictBuilder(n), newDictBuilder(n), newDictBuilder(n)
	// Every column is sized from the line count up front: grown from nil by
	// append, a default block's slabs and output cost ≈ 60 MB of garbage.
	slab := make([]int64, len(intCols)*n)
	ints := make([][]int64, len(intCols))
	for i := range ints {
		ints[i] = slab[i*n : (i+1)*n]
	}
	var minAt, maxAt int64

	// e is declared once: Get is a func value, so an Event made per row
	// would be a heap allocation per row.
	var e telemetry.Event
	var scratch []byte
	for row, line := range lines {
		var ok bool
		e, ok = telemetry.ParseJSONL(line)
		// Belt and braces: ParseJSONL guarantees the columns reproduce the
		// line, but losslessness is the archive's contract, so it is checked.
		if ok {
			scratch = telemetry.AppendJSONL(scratch[:0], e)
			ok = string(scratch) == string(line)
		}
		if !ok {
			return nil, nil, fmt.Errorf("archive: run %q: row %d is not a canonical journal line", run, row)
		}
		kind.add(e.Kind.String())
		session.add(e.Session)
		label.add(e.Label)
		for i, c := range intCols {
			ints[i][row] = c.Get(&e)
		}
		at := int64(e.At)
		if row == 0 || at < minAt {
			minAt = at
		}
		if row == 0 || at > maxAt {
			maxAt = at
		}
	}

	ft := footer{
		Version: blockVersion, Run: run, Rows: n,
		MinAtNS: minAt, MaxAtNS: maxAt,
		Kinds: append([]string(nil), kind.entries...),
	}
	// Groups resolve once per session-dictionary entry, never per row.
	groups := map[string]bool{}
	for _, s := range session.entries {
		groups[telemetry.GroupOfSession(s)] = true
	}
	for g := range groups {
		ft.Groups = append(ft.Groups, g)
	}
	sort.Strings(ft.Groups)

	// Pages are rendered in place, each followed by its CRC. 32 B a row is
	// what a campaign's events come to.
	buf := make([]byte, 0, headerLen+32*n)
	buf = append(append(buf, blockMagic...), blockVersion)
	page := func(name string, render func(dst []byte) []byte) {
		off := len(buf)
		buf = render(buf)
		ft.Pages = append(ft.Pages, pageInfo{Name: name, Off: int64(off), Len: int64(len(buf) - off)})
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[off:], blockCRCTable))
	}
	// Every page's by-kind prediction goes through the one table.
	last := make([]int64, len(kind.entries)+1)
	dictPage := func(d *dictBuilder, ctx []int64) func([]byte) []byte {
		return func(p []byte) []byte {
			c := column{rows: d.rows, ctx: ctx, last: last, dict: true}
			return c.appendTo(d.head(p))
		}
	}
	page("kind", dictPage(kind, follows(kind.rows, len(kind.entries))))
	page("session", dictPage(session, kind.rows))
	page("label", dictPage(label, kind.rows))
	for i, c := range intCols {
		page(c.Name, func(p []byte) []byte {
			col := column{rows: ints[i], ctx: kind.rows, last: last}
			return col.appendTo(p)
		})
	}
	page("raw", func(p []byte) []byte { return append(p, 0) })

	ftJSON, err := json.Marshal(ft)
	if err != nil {
		return nil, nil, err
	}
	buf = append(buf, ftJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(ftJSON, blockCRCTable))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ftJSON)))
	buf = append(buf, blockEndMagic...)
	return buf, &ft, nil
}

// Block is the block reader: one open block's validated footer, plus
// whatever pages a caller asks for — each fetched by its own ReadAt,
// CRC-verified, and decoded into a slab the Block owns. A reader that needs
// three columns neither reads nor decodes the other twelve.
//
// A query's worker reuses its Block for every block file it prepares (and
// the Store keeps it for the next query), so slabs are made at the footer's
// row count once and then only refilled. What Ints and the row loops return
// is therefore valid until the Block opens its next block; a Block from
// DecodeBlock never does. Strings are the exception: they leave the reader
// inside Events that callers may keep, so a dictionary's entries are never
// views of the page buffer but the strings of the reader's intern table (see
// dictEntries). A Block serves one goroutine at a time: a worker while it
// prepares a block, the query's caller while it consumes it (see walk).
type Block struct {
	src   io.ReaderAt
	file  *os.File // what close releases; nil over DecodeBlock's memory
	ft    footer
	names telemetry.Interner // kept from query to query (see intern); nil over DecodeBlock's

	buf     []byte // the page read last; the next read overwrites it
	kindBuf []byte // the kind page's own buffer (see page)
	have    uint32 // columns decoded for this block: bit c, or numDicts+i
	dicts   [numDicts]dictCol
	kinds   []telemetry.Kind // the kind dictionary resolved; unknown names are 0
	ints    [][]int64        // one slab per telemetry.IntColumns entry
	last    []int64          // a by-kind page's table, one entry per kind (see pageRows)

	// What filter resolved for this block: a verdict per dictionary entry
	// and, when the query has a time window, the at_ns slab.
	plan           *plan
	kindOK, sessOK []bool
	at             []int64

	// What a worker prepared in this block for its query's caller: whether
	// the query reads it and why not, Scan's first matching row, the columns
	// a rollup folds, Export's lines; and the channels it hands the reader
	// over on and is told to go on or stop on (see fanOut).
	prepOK  bool
	prepErr error
	first   int
	fold    foldCols
	ev      telemetry.Event // the Event that event fills
	ready   chan struct{}
	resume  chan bool
	line    [][]byte // journal lines, in pieces (see piece)

	// What the reader holds as a query's caller: the read view's blocks and
	// WAL tail (see snapshot and readWAL), the rollup's state, the walk's
	// workers and what they read while it runs (see fanOut), and the query's
	// start and block counts for the store's metrics. putLocked empties all
	// but the buffers.
	blocks       []*blockMeta
	wal          []byte
	walLines     [][]byte
	agg          aggState
	workers      []*Block
	live         []*blockMeta
	prep         func(*Block) (bool, error)
	wg           sync.WaitGroup
	start        time.Time
	read, pruned int
}

// dictCol is one decoded dictionary column.
type dictCol struct {
	entries []string
	rows    []uint32
}

// The dictionary columns, in page order.
const (
	colKind = iota
	colSession
	colLabel
	numDicts
)

var dictNames = [numDicts]string{"kind", "session", "label"}

// headerLen is the leading magic plus the version byte.
const headerLen = 4 + 1

// sized returns s with length n, reallocating only when it cannot hold n.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// DecodeBlock opens a block held in memory: the same reader the store runs
// over block files, here over data. It never panics, whatever the input:
// truncation, corruption and adversarial length fields all surface as
// ErrBadBlock (the property FuzzBlockDecode pins).
func DecodeBlock(data []byte) (*Block, error) {
	b := new(Block)
	if err := b.open(bytes.NewReader(data), int64(len(data))); err != nil {
		return nil, err
	}
	return b, nil
}

// openFile points b at m's block file, releasing the one before. The footer
// is m's when m holds one verified at the file's present size: then nothing
// but the file's size is read until a page is. Otherwise — the first visit,
// or a file truncated or replaced since — open reads and verifies it from
// the file, and m keeps it for every later query.
func (b *Block) openFile(m *blockMeta) error {
	b.close()
	f, err := os.Open(m.path)
	if err != nil {
		return err
	}
	b.file = f
	// The size by seeking to the end, not Stat: ReadAt ignores the offset,
	// and a Stat allocates its FileInfo on every block a query opens.
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		if vf := m.ft.Load(); vf != nil && vf.size == size {
			b.src, b.have, b.ft = f, 0, vf.footer
			return nil
		}
		err = b.open(f, size)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(m.path), err)
	}
	m.ft.Store(&verifiedFooter{size: size, footer: b.ft})
	return nil
}

// close releases the open file, if any.
func (b *Block) close() {
	if b.file != nil {
		b.file.Close()
	}
	b.src, b.file, b.plan = nil, nil, nil
}

// open validates the envelope of the size-byte block behind src and parses
// its footer — once; nothing later re-reads it. It reads the header, the
// 12-byte trailer and the footer JSON, and no page. The footer is parsed
// into fresh slices, never b.ft's old ones, because a blockMeta may share
// them (see openFile).
func (b *Block) open(src io.ReaderAt, size int64) error {
	b.src, b.have, b.ft = src, 0, footer{}
	if size < headerLen+blockTailLen {
		return fmt.Errorf("%w: %d bytes", ErrBadBlock, size)
	}
	b.buf = sized(b.buf, headerLen+blockTailLen)
	head, tail := b.buf[:headerLen], b.buf[headerLen:]
	if _, err := src.ReadAt(head, 0); err != nil {
		return err
	}
	if _, err := src.ReadAt(tail, size-blockTailLen); err != nil {
		return err
	}
	if string(head[:4]) != string(blockMagic) {
		return fmt.Errorf("%w: magic %x", ErrBadBlock, head[:4])
	}
	if version := head[4]; version != blockVersion {
		return fmt.Errorf("%w: version %d, and only version %d is read", ErrBadBlock, version, blockVersion)
	}
	if string(tail[8:]) != string(blockEndMagic) {
		return fmt.Errorf("%w: end magic", ErrBadBlock)
	}
	wantCRC := binary.LittleEndian.Uint32(tail)
	flen := int64(binary.LittleEndian.Uint32(tail[4:]))
	if flen > maxFooterLen || size-blockTailLen < flen {
		return fmt.Errorf("%w: footer length %d", ErrBadBlock, flen)
	}
	b.buf = sized(b.buf, int(flen))
	if _, err := src.ReadAt(b.buf, size-blockTailLen-flen); err != nil {
		return err
	}
	if crc32.Checksum(b.buf, blockCRCTable) != wantCRC {
		return fmt.Errorf("%w: footer checksum", ErrBadBlock)
	}
	if err := json.Unmarshal(b.buf, &b.ft); err != nil {
		return fmt.Errorf("%w: footer: %v", ErrBadBlock, err)
	}
	if b.ft.Version != blockVersion {
		return fmt.Errorf("%w: footer version %d under a version %d header", ErrBadBlock, b.ft.Version, blockVersion)
	}
	if b.ft.Rows < 0 || b.ft.Raws != 0 {
		return fmt.Errorf("%w: footer counts %d rows, %d raw rows", ErrBadBlock, b.ft.Rows, b.ft.Raws)
	}
	// Every row costs at least a bit in every column page past its mode
	// byte, so a row count no page could hold is a lie; and the slabs are
	// sized from it, so it must be refused before anything is.
	for _, pg := range b.ft.Pages {
		// Bounds via subtraction, not pg.Off+pg.Len+4: a crafted footer
		// (valid CRC, huge offsets) can wrap int64 addition and slip an
		// out-of-range page past the check into a read far outside the block.
		if pg.Off < headerLen || pg.Len < 0 || pg.Len > size || pg.Off > size-4-pg.Len {
			return fmt.Errorf("%w: page %q outside block", ErrBadBlock, pg.Name)
		}
		if pg.Name == "raw" {
			if pg.Len != 1 {
				return fmt.Errorf("%w: a %d-byte raw page, not the one zero byte", ErrBadBlock, pg.Len)
			}
		} else if int64(b.ft.Rows) > 8*(pg.Len-1) {
			return fmt.Errorf("%w: %d rows in the %d-byte page %q", ErrBadBlock, b.ft.Rows, pg.Len, pg.Name)
		}
	}
	return nil
}

// Rows returns the number of events in the block.
func (b *Block) Rows() int { return b.ft.Rows }

// page reads the named page into the reader's buffer and returns its
// payload after verifying its CRC. The payload is valid until the next read.
// The kind page has a buffer of its own: a by-kind page decodes the kind
// rows midway through its own decode, and its payload must survive that.
func (b *Block) page(name string) ([]byte, error) {
	buf := &b.buf
	if name == dictNames[colKind] {
		buf = &b.kindBuf
	}
	for _, pg := range b.ft.Pages {
		if pg.Name != name {
			continue
		}
		*buf = sized(*buf, int(pg.Len)+4)
		if _, err := b.src.ReadAt(*buf, pg.Off); err != nil {
			return nil, fmt.Errorf("page %q: %w", name, err)
		}
		payload := (*buf)[:pg.Len]
		if crc32.Checksum(payload, blockCRCTable) != binary.LittleEndian.Uint32((*buf)[pg.Len:]) {
			return nil, fmt.Errorf("%w: page %q checksum", ErrBadBlock, name)
		}
		return payload, nil
	}
	return nil, fmt.Errorf("%w: no page %q", ErrBadBlock, name)
}

// dict decodes dictionary column c — the interned entries and one entry
// index per row — once per block.
func (b *Block) dict(c int) (*dictCol, error) {
	d := &b.dicts[c]
	if b.have&(1<<c) != 0 {
		return d, nil
	}
	rest, err := b.dictEntries(c)
	if err == nil {
		err = b.dictRows(c, rest)
	}
	return d, err
}

// dictEntries reads dictionary column c's page and decodes its entries
// only, returning the rest of the payload — the row indexes, still in the
// page buffer — for dictRows. filter stops between the two when no entry
// of the session dictionary can match.
func (b *Block) dictEntries(c int) (rest []byte, err error) {
	name := dictNames[c]
	p, err := b.page(name)
	if err != nil {
		return nil, err
	}
	n, start := binary.Uvarint(p)
	if start <= 0 || n > uint64(len(p)) {
		return nil, fmt.Errorf("%w: dict %q entry count", ErrBadBlock, name)
	}
	d := &b.dicts[c]
	d.entries = sized(d.entries, int(n))
	// Entries are the reader's interned strings: a warm query copies none.
	// One that does not fit in the table, or has none, is one copy.
	interned, end := b.names != nil && uint64(len(b.names))+n <= maxNames, start
	for i := range d.entries {
		l, sz := binary.Uvarint(p[end:])
		if sz <= 0 || l > uint64(len(p)-end-sz) {
			return nil, fmt.Errorf("%w: dict %q entry", ErrBadBlock, name)
		}
		if end += sz + int(l); interned {
			d.entries[i] = b.intern(p[end-int(l) : end])
		}
	}
	if !interned {
		text, off := string(p[start:end]), 0
		for i := range d.entries {
			l, sz := binary.Uvarint(p[start+off:])
			off += sz + int(l)
			d.entries[i] = text[off-int(l) : off]
		}
	}
	if c == colKind {
		b.kinds = sized(b.kinds, len(d.entries))
		for i, name := range d.entries {
			b.kinds[i], _ = telemetry.ParseKind(name) // unknown names decode as 0
		}
	}
	return p[end:], nil
}

// intern returns e as the string of the reader's table, copied in when new.
func (b *Block) intern(e []byte) string {
	s, ok := b.names[string(e)]
	if !ok {
		s = string(e)
		b.names[s] = s
	}
	return s
}

// dictRows decodes column c's per-row entry indexes from rest, the payload
// dictEntries left, into the column's exact-size slab.
func (b *Block) dictRows(c int, rest []byte) error {
	d := &b.dicts[c]
	d.rows = sized(d.rows, b.ft.Rows)
	if len(d.entries) == 0 && len(d.rows) > 0 {
		return fmt.Errorf("%w: dict %q rows", ErrBadBlock, dictNames[c])
	}
	if err := decodePage(b, d.rows, rest, dictNames[c], uint64(len(d.entries))); err != nil {
		return err
	}
	b.have |= 1 << c
	return nil
}

// Ints decodes an integer column, once per block, into its exact-size slab,
// undoing the page's prediction and coding.
func (b *Block) Ints(name string) ([]int64, error) {
	cols := telemetry.IntColumns()
	ci := 0
	for ci < len(cols) && cols[ci].Name != name {
		ci++
	}
	if ci == len(cols) {
		return nil, fmt.Errorf("%w: no int column %q", ErrBadBlock, name)
	}
	if b.ints == nil {
		b.ints = make([][]int64, len(cols))
	}
	if b.have&(1<<(numDicts+ci)) != 0 {
		return b.ints[ci], nil
	}
	p, err := b.page(name)
	if err != nil {
		return nil, err
	}
	dst := sized(b.ints[ci], b.ft.Rows)
	b.ints[ci] = dst
	if err := decodePage(b, dst, p, name, 0); err != nil {
		return nil, err
	}
	b.have |= 1 << (numDicts + ci)
	return dst, nil
}

// decodePage fills dst from p, the named column's page payload past any
// dictionary entries: its mode byte, then, for a by-kind page, the kind rows
// it predicts from (none on the kind page itself), then the rows. entries is
// 0 for an integer column.
func decodePage[T uint32 | int64](b *Block, dst []T, p []byte, name string, entries uint64) error {
	if len(p) == 0 || mode(p[0]) >= modes {
		return fmt.Errorf("%w: column %q mode", ErrBadBlock, name)
	}
	m, p := mode(p[0]), p[1:]
	var ctx []uint32
	var last []int64
	if m&byKind != 0 {
		if name != dictNames[colKind] {
			kind, err := b.dict(colKind)
			if err != nil {
				return err
			}
			ctx = kind.rows
		}
		b.last = sized(b.last, len(b.dicts[colKind].entries))
		clear(b.last)
		last = b.last
	}
	if !pageRows(dst, p, m, ctx, last, entries) {
		return fmt.Errorf("%w: column %q rows", ErrBadBlock, name)
	}
	return nil
}

// loadRows decodes every column event needs that is not decoded yet.
func (b *Block) loadRows() error {
	for c := 0; c < numDicts; c++ {
		if _, err := b.dict(c); err != nil {
			return err
		}
	}
	for _, c := range telemetry.IntColumns() {
		if _, err := b.Ints(c.Name); err != nil {
			return err
		}
	}
	return nil
}

// event materializes row i from the decoded columns (see loadRows) into
// b.ev, refilled row after row: the column setters are indirect calls, so an
// Event made by the row loops would be a heap allocation per loop.
func (b *Block) event(i int) *telemetry.Event {
	e := &b.ev
	kind, sess, label := &b.dicts[colKind], &b.dicts[colSession], &b.dicts[colLabel]
	e.Kind = b.kinds[kind.rows[i]]
	e.Session = sess.entries[sess.rows[i]]
	e.Label = label.entries[label.rows[i]]
	for ci, c := range telemetry.IntColumns() {
		c.Set(e, b.ints[ci][i])
	}
	return e
}

// Export writes every row back as journal JSONL in row order (see render).
func (b *Block) Export(w io.Writer) error {
	if err := b.render(); err != nil {
		return err
	}
	return b.writeLines(w)
}

// render decodes every column and re-renders the rows into b.line as the
// lines the block was built from, a retired kind's "unknown" spliced back.
func (b *Block) render() error {
	if err := b.loadRows(); err != nil {
		return err
	}
	b.line = b.line[:0]
	for i, longest := 0, 0; i < b.ft.Rows; i++ {
		p := b.piece(longest)
		n, e := len(*p), b.event(i)
		*p = telemetry.AppendJSONL(*p, *e)
		if e.Kind == 0 {
			kind := &b.dicts[colKind]
			*p = slices.Replace(*p, n+len(`{"kind":"`), n+len(`{"kind":"unknown`), []byte(kind.entries[kind.rows[i]])...)
		}
		longest = max(longest, len(*p)-n)
	}
	return nil
}

// piece returns the piece of b.line to append up to n bytes to: the last, or
// the next — kept from a block before, or a new MiB — when that has no room.
func (b *Block) piece(n int) *[]byte {
	k := len(b.line)
	if k == 0 || cap(b.line[k-1])-len(b.line[k-1]) < n {
		if b.line = slices.Grow(b.line, 1)[:k+1]; cap(b.line[k]) == 0 {
			b.line[k] = make([]byte, 0, 1<<20)
		}
		b.line[k], k = b.line[k][:0], k+1
	}
	return &b.line[k-1]
}

// writeLines writes b.line's pieces, in order.
func (b *Block) writeLines(w io.Writer) error {
	for _, p := range b.line {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}
