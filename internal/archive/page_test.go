package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bba/internal/telemetry"
)

// impliedMode is the mode a v1 or v2 page of the named column had no byte
// for: at_ns and chunk, near-monotone in admission order, coded deltas from
// the row before, every other column values.
func impliedMode(column string) mode {
	if column == "at_ns" || column == "chunk" {
		return asDelta
	}
	return 0
}

// legacyValue is what a v1 or v2 page of implied mode m stored for row v
// after prev: zigzag(v − prev) in a delta column, a dictionary index as is,
// any other integer zigzag(v).
func legacyValue(v, prev int64, m mode, dict bool) uint64 {
	switch {
	case m&asDelta != 0:
		return zigzag(v - prev)
	case dict:
		return uint64(v)
	}
	return zigzag(v)
}

// appendRowsV1 renders rows the way a version-1 page did: one uvarint a
// row, no bitmap.
func appendRowsV1(dst []byte, rows []int64, m mode, dict bool) []byte {
	var prev int64
	for _, v := range rows {
		dst = binary.AppendUvarint(dst, legacyValue(v, prev, m, dict))
		prev = v
	}
	return dst
}

// appendRowsV2 renders rows the way a version-2 page did: the change
// bitmap, row 0's bit always set, then one uvarint per changed row.
func appendRowsV2(dst []byte, rows []int64, m mode, dict bool) []byte {
	bitmap := len(dst)
	dst = append(dst, make([]byte, (len(rows)+7)/8)...)
	var prev int64
	for i, v := range rows {
		if i > 0 && v == prev {
			continue
		}
		dst[bitmap+i/8] |= 1 << (i % 8)
		dst = binary.AppendUvarint(dst, legacyValue(v, prev, m, dict))
		prev = v
	}
	return dst
}

// dictRows64 returns a decoded dictionary column's rows as int64s.
func dictRows64(b *Block, c int) []int64 {
	rows := make([]int64, len(b.dicts[c].rows))
	for i, r := range b.dicts[c].rows {
		rows[i] = int64(r)
	}
	return rows
}

// dictHead returns the length of a dictionary page's entries — its count
// and each length-prefixed entry — where its rows begin.
func dictHead(p []byte) int {
	n, off := binary.Uvarint(p)
	for ; n > 0; n-- {
		l, sz := binary.Uvarint(p[off:])
		off += sz + int(l)
	}
	return off
}

// loaded decodes blk and every column of it.
func loaded(t testing.TB, blk []byte) *Block {
	t.Helper()
	b, err := DecodeBlock(blk)
	if err == nil {
		err = b.loadRows()
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scanBlock is Scan's work on one open block — a worker's prepareScan, then
// the caller's scanRows — with no store around it.
func scanBlock(b *Block, p *plan, fn func(telemetry.Event) bool) error {
	ok, err := b.prepareScan(p)
	if ok {
		b.scanRows(fn)
	}
	return err
}

// foldBlock is Aggregate's work on one open block: prepareFold, then addBlock
// into a.
func foldBlock(a *aggState, b *Block, p *plan) error {
	ok, err := b.prepareFold(p)
	if ok {
		a.addBlock(b)
	}
	return err
}

// rewrite re-renders blk with each page's payload passed through edit, in
// file order, under a header and footer of the given version: the footer is
// blk's but for its version and page offsets, and the envelope is re-signed.
func rewrite(t testing.TB, blk []byte, version int, edit func(name string, payload []byte) []byte) []byte {
	t.Helper()
	b := loaded(t, blk)
	ft := b.ft
	ft.Version, ft.Pages = version, nil
	out := append(append([]byte(nil), blockMagic...), byte(version))
	for _, pg := range b.ft.Pages {
		p, err := b.page(pg.Name)
		if err != nil {
			t.Fatal(err)
		}
		p = edit(pg.Name, append([]byte(nil), p...))
		ft.Pages = append(ft.Pages, pageInfo{Name: pg.Name, Off: int64(len(out)), Len: int64(len(p))})
		out = binary.LittleEndian.AppendUint32(append(out, p...), crc32.Checksum(p, blockCRCTable))
	}
	return seal(t, out, ft)
}

// recode re-renders blk under a header and footer of the given version,
// each dictionary and integer page's rows as render makes them of the
// decoded column — a dictionary page keeping its entries — and the raw page
// as it is.
func recode(t testing.TB, blk []byte, version int, render func(dst []byte, c column, name string) []byte) []byte {
	t.Helper()
	b := loaded(t, blk)
	kinds, entries := dictRows64(b, colKind), len(b.dicts[colKind].entries)
	last := make([]int64, entries+1)
	return rewrite(t, blk, version, func(name string, p []byte) []byte {
		for c, dn := range dictNames {
			if name == dn {
				col := column{rows: dictRows64(b, c), ctx: kinds, last: last, dict: true}
				if c == colKind {
					col.ctx = follows(col.rows, entries)
				}
				return render(p[:dictHead(p)], col, name)
			}
		}
		for ci, c := range telemetry.IntColumns() {
			if name == c.Name {
				return render(nil, column{rows: b.ints[ci], ctx: kinds, last: last}, name)
			}
		}
		return p // raw
	})
}

// downgrade re-renders a block as version 1 or 2 — the bytes that version's
// encoder wrote for the same lines (TestStoreBytesBudget checks v2 against
// testdata/golden-v2.blk) — which the reader refuses, and whose v2 size
// bounds the v3 encoder's (FuzzPageCodec, TestStoreBytesBudget).
func downgrade(t testing.TB, blk []byte, version int) []byte {
	legacy := appendRowsV1
	if version == 2 {
		legacy = appendRowsV2
	}
	return recode(t, blk, version, func(dst []byte, c column, name string) []byte {
		return legacy(dst, c.rows, impliedMode(name), c.dict)
	})
}

// remode re-renders every column page of blk in mode m: the same rows as
// the encoder would have written them had m been every column's smallest,
// a valid block at other page lengths.
func remode(t testing.TB, blk []byte, m mode) []byte {
	return recode(t, blk, blockVersion, func(dst []byte, c column, _ string) []byte {
		return c.render(dst, m)
	})
}

// TestBlockRejectsCorruptPages is the page format's negative table: a good
// block, then one field corrupted per case — each page re-signed, so the
// CRCs pass and the decoder itself must refuse — and every case must
// surface as ErrBadBlock, from the open or from the first read of the page,
// naming what it refused. Blocks of the versions before 3, which the reader
// no longer decodes, are refused by the open, naming their version.
func TestBlockRejectsCorruptPages(t *testing.T) {
	lines := splitLines(batchOf(0, 100))
	good, _, err := encodeBlock("r", lines)
	if err != nil {
		t.Fatal(err)
	}
	decoded := loaded(t, good)
	bitmap := (len(lines) + 7) / 8
	// page swaps the one named page's payload of the good block for what
	// corrupt makes of it.
	page := func(name string, corrupt func(p []byte) []byte) []byte {
		return rewrite(t, good, blockVersion, func(n string, p []byte) []byte {
			if n == name {
				return corrupt(p)
			}
			return p
		})
	}
	// rerender swaps dictionary column c's rows for what edit makes of them,
	// rendered in mode m as the encoder would — which never checks them
	// against the entries. Its table has room for one kind past the
	// dictionary.
	rerender := func(c int, m mode, edit func(rows []int64)) []byte {
		kinds, entries := dictRows64(decoded, colKind), len(decoded.dicts[colKind].entries)
		col := column{rows: dictRows64(decoded, c), ctx: kinds, last: make([]int64, entries+2), dict: true}
		edit(col.rows)
		if c == colKind {
			col.ctx = follows(col.rows, entries+1)
		}
		return page(dictNames[c], func(p []byte) []byte { return col.render(p[:dictHead(p)], m) })
	}
	refooted := func(blk []byte, edit func(ft *footer)) []byte {
		ft := loaded(t, blk).ft
		edit(&ft)
		return refoot(t, blk, ft)
	}
	minPage := int64(math.MaxInt64)
	for _, pg := range decoded.ft.Pages {
		if pg.Name != "raw" {
			minPage = min(minPage, pg.Len)
		}
	}
	fixture := func(name string) []byte {
		blk, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	// envelope is the good block under the header and footer versions given.
	envelope := func(header byte, fv int) []byte {
		blk := refooted(good, func(ft *footer) { ft.Version = fv })
		blk[headerLen-1] = header
		return blk
	}
	entries := func(c int) int64 { return int64(len(decoded.dicts[c].entries)) }
	// Where the lie must be caught: a footer's by the open, before any slab
	// is sized from it; a page's by the first read of that page.
	const accepted, byOpen, byPage = "", "the open", "the page read"
	for _, tc := range []struct {
		name string
		blk  []byte
		want string
		says string // what the refusal must name
	}{
		{"the good block", good, accepted, ""},
		{"the good block re-rendered unchanged", page("kind", func(p []byte) []byte { return p }), accepted, ""},
		{"the label page re-rendered by kind, as deltas", rerender(colLabel, byKind|asDelta, func([]int64) {}), accepted, ""},
		{"undefined mode bits", page("at_ns", func(p []byte) []byte {
			p[0] = byte(modes)
			return p
		}), byPage, `"at_ns" mode`},
		{"a page too short for its mode byte", page("session", func(p []byte) []byte {
			return p[:dictHead(p)]
		}), byPage, `"session" mode`},
		{"bitmap shorter than ⌈rows/8⌉", page("session", func(p []byte) []byte {
			return p[:dictHead(p)+1+bitmap-1]
		}), byPage, `"session" rows`},
		{"a changed-value varint truncated", page("at_ns", func(p []byte) []byte {
			return p[:len(p)-1]
		}), byPage, `"at_ns" rows`},
		{"a dictionary index ≥ the entry count", rerender(colLabel, 0, func(rows []int64) {
			rows[len(rows)/2] = entries(colLabel)
		}), byPage, `"label" rows`},
		{"a context index ≥ the kind entry count", rerender(colKind, byKind|asDelta, func(rows []int64) {
			rows[len(rows)/2] = entries(colKind)
		}), byPage, `"kind" rows`},
		// A page's payload is used up exactly: bytes past its rows are a lie.
		{"two bytes past the at_ns page's rows", page("at_ns", func(p []byte) []byte {
			return append(p, 0, 0)
		}), byPage, `"at_ns" rows`},
		{"two bytes past the session page's rows", page("session", func(p []byte) []byte {
			return append(p, 0, 0)
		}), byPage, `"session" rows`},
		{"two bytes past the kind page's rows", page("kind", func(p []byte) []byte {
			return append(p, 0, 0)
		}), byPage, `"kind" rows`},
		{"two bytes past the raw page's one zero byte", page("raw", func(p []byte) []byte {
			return append(p, 0, 0)
		}), byOpen, "raw page"},
		{"a footer counting a raw row", refooted(good, func(ft *footer) { ft.Raws = 1 }), byOpen, "raw rows"},
		{"a footer claiming more than 8 rows per page byte", refooted(good, func(ft *footer) {
			ft.Rows = int(8*(minPage-1)) + 1
		}), byOpen, "rows in the"},
		{"header version 3, footer version 2", envelope(3, 2), byOpen, "footer version 2 under a version 3 header"},
		{"header version 2, footer version 1", envelope(2, 1), byOpen, "version 2"},
		{"header version 1, footer version 2", envelope(1, 2), byOpen, "version 1"},
		{"header version 4, footer version 3", envelope(4, 3), byOpen, "version 4"},
		{"golden-v2.blk, a block the v2 encoder sealed", fixture("golden-v2.blk"), byOpen, "version 2"},
		{"golden-v1.blk, a block the v1 encoder sealed", fixture("golden-v1.blk"), byOpen, "version 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := DecodeBlock(tc.blk)
			got := byOpen
			if err == nil {
				got, err = byPage, b.Export(io.Discard)
			}
			switch {
			case tc.want == accepted && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != accepted && !errors.Is(err, ErrBadBlock):
				t.Fatalf("error %v, want ErrBadBlock", err)
			case tc.want != accepted && got != tc.want:
				t.Fatalf("refused by %s, want %s: %v", got, tc.want, err)
			case tc.want != accepted && !strings.Contains(err.Error(), tc.says):
				t.Fatalf("error %q does not name %s", err, tc.says)
			}
		})
	}
}

// pageColumn turns fuzz bytes into an int64 column: each byte is one row,
// its low three bits the shape — a run (the row before again), an
// alternation (the row two back), MinInt64, MaxInt64, a small step, zero, or
// a full 64-bit value taken from the bytes that follow.
func pageColumn(data []byte) []int64 {
	var col []int64
	at := func(back int) int64 {
		if len(col) < back {
			return 0
		}
		return col[len(col)-back]
	}
	for i := 0; i < len(data); i++ {
		var v int64
		switch b := data[i]; b & 7 {
		case 0, 1:
			v = at(1)
		case 2:
			v = at(2)
		case 3:
			v = math.MinInt64
		case 4:
			v = math.MaxInt64
		case 5:
			v = at(1) + int64(int8(b))>>3
		case 6:
			var w [8]byte
			i += copy(w[:], data[i+1:])
			v = int64(binary.LittleEndian.Uint64(w[:]))
		}
		col = append(col, v)
	}
	return col
}

// FuzzPageCodec states the property the v3 gain rests on and bounds its
// worst case: a column encoded in any of the four modes — on a dictionary
// page, an integer page, or the kind page predicting from itself — and
// decoded comes back exactly; the mode encodeBlock picks is never longer
// than the v2 page of the same column, in either v2 coding, plus the mode
// byte; and the decoder, in any mode, never panics on arbitrary bytes under
// arbitrary context rows.
func FuzzPageCodec(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 5, 5, 1, 1}, uint8(1))
	f.Add([]byte{3, 4, 3, 4, 2, 2, 2, 0}, uint8(2))
	f.Add([]byte{6, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 4, 3}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x25, 0x02, 0x01}, 30), uint8(5))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		col := pageColumn(data)
		// The context rows: one of up to eight kinds a row, from the bytes.
		nk := int(pick>>5) + 1
		kinds := make([]int64, len(col))
		ctx := make([]uint32, len(col))
		for i := range kinds {
			if i < len(data) {
				kinds[i] = int64(data[i]>>3) % int64(nk)
			}
			ctx[i] = uint32(kinds[i])
		}
		c := column{rows: col, ctx: kinds, last: make([]int64, nk+1)}
		entries := uint64(0)
		switch pick % 3 {
		case 1: // a dictionary page: fold the column onto [0, entries)
			c.dict, entries = true, uint64(pick>>2&7)+1
		case 2: // the kind page: each row is the next one's context
			c.dict, ctx, entries = true, nil, uint64(nk)
		}
		if c.dict {
			for i, v := range col {
				col[i] = int64(uint64(v) % entries)
			}
		}
		if ctx == nil {
			c.ctx = follows(col, nk)
		}
		last := make([]int64, nk)
		decodes := func(page []byte, m mode) {
			t.Helper()
			got := make([]int64, len(col))
			clear(last)
			if !pageRows(got, page, m, ctx, last, entries) {
				t.Fatalf("mode %d: %d rows did not decode", m, len(col))
			}
			if !slices.Equal(got, col) {
				t.Fatalf("mode %d: decoded %v, encoded %v", m, got, col)
			}
		}
		for m := range modes {
			decodes(c.render(nil, m)[1:], m)
		}
		chosen := c.appendTo(nil)
		decodes(chosen[1:], mode(chosen[0]))
		legacy := []mode{0}
		if !c.dict {
			legacy = append(legacy, asDelta)
		}
		for _, m := range legacy {
			v2 := appendRowsV2(nil, col, m, c.dict)
			if len(chosen) > len(v2)+1 {
				t.Fatalf("%d rows: v3 page %d bytes, over the mode-%d v2 page's %d plus the mode byte", len(col), len(chosen), m, len(v2))
			}
		}
		// Arbitrary bytes, any mode, any row count the input implies,
		// contexts from the bytes and a table that may be short.
		rows := make([]uint32, int(pick)%(8*len(data)+1))
		anyCtx := make([]uint32, len(rows))
		for i := range anyCtx {
			anyCtx[i] = uint32(data[i%len(data)])
		}
		m := mode(pick>>2) % modes
		short := last[:int(pick)%(nk+1)]
		clear(short)
		pageRows(rows, data, m, anyCtx, short, entries+1)
		clear(short)
		pageRows(rows, data, m, nil, short, entries+1)
		clear(short)
		pageRows(make([]int64, len(rows)), data, m, nil, short, 0)
	})
}
