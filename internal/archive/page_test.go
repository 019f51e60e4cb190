package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"bba/internal/telemetry"
)

// appendRowsV1 renders rows the way a version-1 page did: one uvarint a
// row, no bitmap.
func appendRowsV1(dst []byte, rows []int64, how coding) []byte {
	var prev int64
	for _, v := range rows {
		u := uint64(v)
		switch how {
		case zigzagValue:
			u = zigzag(v)
		case zigzagDelta:
			u = zigzag(v - prev)
		}
		dst = binary.AppendUvarint(dst, u)
		prev = v
	}
	return dst
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

// downgrade re-renders a block as version 1 — the bytes the v1 encoder
// wrote for the same lines, which TestBlockFormatGoldenV1 checks against a
// block that encoder sealed.
func downgrade(t testing.TB, blk []byte) []byte {
	t.Helper()
	b := loaded(t, blk)
	return rewrite(t, blk, 1, func(name string, p []byte) []byte {
		for c, dn := range dictNames {
			if name == dn {
				rows := make([]int64, len(b.dicts[c].rows))
				for i, r := range b.dicts[c].rows {
					rows[i] = int64(r)
				}
				return appendRowsV1(p[:dictHead(p)], rows, dictIndex)
			}
		}
		for ci, c := range telemetry.IntColumns() {
			if name == c.Name {
				return appendRowsV1(nil, b.ints[ci], intCoding(c))
			}
		}
		return p // raw
	})
}

// TestBlockRejectsCorruptPages is the v2 page format's negative table: one
// good block, then one field corrupted per case — each page re-signed, so
// the CRCs pass and the decoder itself must refuse — and every case must
// surface as ErrBadBlock, from the open or from the first read of the page.
func TestBlockRejectsCorruptPages(t *testing.T) {
	lines := splitLines(batchOf(0, 100))
	good, _, err := encodeBlock("r", lines)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(lines)
	bitmap := (rows + 7) / 8
	// page swaps the one named page's payload for what corrupt makes of it.
	page := func(name string, corrupt func(p []byte) []byte) []byte {
		return rewrite(t, good, blockVersion, func(n string, p []byte) []byte {
			if n == name {
				return corrupt(p)
			}
			return p
		})
	}
	refooted := func(edit func(ft *footer)) []byte {
		ft := loaded(t, good).ft
		edit(&ft)
		return refoot(t, good, ft)
	}
	minPage := int64(math.MaxInt64)
	for _, pg := range loaded(t, good).ft.Pages {
		if pg.Name != "raw" {
			minPage = min(minPage, pg.Len)
		}
	}
	v1Header := append([]byte(nil), good...)
	v1Header[headerLen-1] = 1
	// Where the lie must be caught: a footer's by the open, before any slab
	// is sized from it; a page's by the first read of that page.
	const accepted, byOpen, byPage = "", "the open", "the page read"
	for _, tc := range []struct {
		name string
		blk  []byte
		want string
	}{
		{"the good block", good, accepted},
		{"the good block re-rendered unchanged", page("kind", func(p []byte) []byte { return p }), accepted},
		{"bitmap shorter than ⌈rows/8⌉", page("session", func(p []byte) []byte {
			return p[:dictHead(p)+bitmap-1]
		}), byPage},
		{"row 0's bit clear in a dictionary page", page("kind", func(p []byte) []byte {
			p[dictHead(p)] &^= 1
			return p
		}), byPage},
		{"a changed-value varint truncated", page("at_ns", func(p []byte) []byte {
			return p[:len(p)-1]
		}), byPage},
		{"a dictionary index ≥ the entry count", page("label", func(p []byte) []byte {
			entries, _ := binary.Uvarint(p)
			at := dictHead(p) + bitmap
			_, sz := binary.Uvarint(p[at:])
			return append(binary.AppendUvarint(p[:at:at], entries), p[at+sz:]...)
		}), byPage},
		{"a footer claiming more than 8 rows per page byte", refooted(func(ft *footer) {
			ft.Rows = int(8*minPage) + 1
		}), byOpen},
		{"header version 2, footer version 1", refooted(func(ft *footer) { ft.Version = 1 }), byOpen},
		{"header version 1, footer version 2", v1Header, byOpen},
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

// FuzzPageCodec states the property the v2 gain rests on and bounds its
// worst case, for every coding: a column encoded and decoded comes back
// exactly; its v2 page is never longer than the v1 page of the same column
// plus the ⌈rows/8⌉-byte bitmap; and the decoder, of either version, never
// panics on arbitrary bytes.
func FuzzPageCodec(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 5, 5, 1, 1}, uint8(1))
	f.Add([]byte{3, 4, 3, 4, 2, 2, 2, 0}, uint8(2))
	f.Add([]byte{6, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 4, 3}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x25, 0x02, 0x01}, 30), uint8(5))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		col := pageColumn(data)
		how := coding(pick % 3)
		entries := uint64(0)
		if how == dictIndex {
			// Dictionary pages hold indexes: fold the column onto
			// [0, entries).
			entries = uint64(pick)/3 + 1
			for i, v := range col {
				col[i] = int64(uint64(v) % entries)
			}
		}
		v1 := appendRowsV1(nil, col, how)
		v2 := appendRows(nil, col, how)
		if bound := len(v1) + (len(col)+7)/8; len(v2) > bound {
			t.Fatalf("%d rows coded %d: v2 page %d bytes, over v1's %d plus the bitmap", len(col), how, len(v2), len(v1))
		}
		for _, pg := range []struct {
			v2   bool
			page []byte
		}{{false, v1}, {true, v2}} {
			got := make([]int64, len(col))
			if !pageRows(got, pg.page, pg.v2, how, entries) {
				t.Fatalf("v2=%v: %d rows coded %d did not decode", pg.v2, len(col), how)
			}
			for i := range col {
				if got[i] != col[i] {
					t.Fatalf("v2=%v coded %d, row %d: decoded %d, encoded %d", pg.v2, how, i, got[i], col[i])
				}
			}
		}
		// Arbitrary bytes, either version, any row count the input implies.
		rows := make([]uint32, int(pick)%(8*len(data)+1))
		pageRows(rows, data, pick&1 == 0, dictIndex, entries+1)
		pageRows(make([]int64, len(rows)), data, pick&1 == 1, how, 0)
	})
}
