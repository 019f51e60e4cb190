package collect

import (
	"bytes"
	"math"
	"testing"
)

// FuzzFrameDecode pins the decoder's safety properties: arbitrary input —
// truncated, corrupt, duplicated, adversarial length fields — never
// panics, and any input that does decode is canonical: re-encoding the
// decoded frame reproduces exactly the bytes consumed. Canonicality is
// what "never double-count" rests on — the dedup key (run, session, seq)
// of a frame is a pure function of its bytes, so a replayed frame can
// never decode to a different key and sneak past the watermark.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: 2, Kind: PayloadEvents, Payload: []byte("line\n")}))
	f.Add(AppendFrame(nil, Frame{Run: "campaign-42", Session: 9, Seq: 0, Kind: PayloadKind(3), Payload: []byte(`{"shard":1}`)}))
	f.Add(AppendFrame(nil, Frame{Run: "x", Session: 0, Seq: 0, Kind: PayloadKind(4), Payload: nil}))
	// A doubled frame: the decoder must consume exactly one.
	one := AppendFrame(nil, Frame{Run: "d", Session: 3, Seq: 4, Kind: PayloadKind(2), Payload: []byte("{}")})
	f.Add(append(append([]byte(nil), one...), one...))
	f.Add([]byte{0xB3, 0xAC, 1, 1, 0})
	f.Add([]byte{0xB3, 0xAC})
	f.Add([]byte(nil))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("decode/re-encode is not canonical:\nin:  %x\nout: %x", b[:n], re)
		}
		// Decoding the re-encoding yields the same frame — the dedup key
		// is stable under replay.
		fr2, n2, err2 := DecodeFrame(re)
		if err2 != nil || n2 != n {
			t.Fatalf("re-decode: %v (%d vs %d)", err2, n2, n)
		}
		if fr2.Run != fr.Run || fr2.Session != fr.Session || fr2.Seq != fr.Seq || fr2.Kind != fr.Kind || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-decode differs: %+v vs %+v", fr2, fr)
		}
	})
}

// FuzzIngestOrder holds admission to its contract over any arrival order:
// duplicates, reorders, gaps and seqs at the top of the range, one stream,
// into a real archive store that is restarted — closed, reopened under a
// new collector — before the arrival restartAt and sealed before the
// arrival sealAt. No seq is archived twice, archived seqs strictly
// increase, and every arrival above all earlier ones is archived — except
// 2^64−1, which is refused. Each input byte is one arrival: below 0xF0 it
// is that seq, from 0xF0 up it is one of the sixteen seqs ending at 2^64−1.
func FuzzIngestOrder(f *testing.F) {
	f.Add(uint8(2), uint8(1), []byte{0, 1, 2, 3})
	f.Add(uint8(3), uint8(2), []byte{2, 1, 0, 2, 3})
	f.Add(uint8(9), uint8(5), []byte{0, 1, 2, 3, 4, 6, 7, 8, 9, 5})
	f.Add(uint8(1), uint8(4), []byte{0, 0xF0, 0xFE, 0xFF, 0})
	f.Add(uint8(1), uint8(1), []byte{0xFF, 0xFF, 3})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, restartAt, sealAt uint8, data []byte) {
		c := newSeqCollector(t)
		var must []uint64 // arrivals above every earlier one
		highest := -1     // the largest byte so far; bytes order as their seqs do
		for i, b := range data {
			if i == int(restartAt) {
				c.restart()
			}
			if i == int(sealAt) {
				if err := c.store.CompactAll(); err != nil {
					t.Fatal(err)
				}
			}
			seq := uint64(b)
			if b >= 0xF0 {
				seq = math.MaxUint64 - uint64(0xFF-b)
			}
			if err := c.ingest(seq); (err != nil) != (seq == math.MaxUint64) {
				t.Fatalf("arrival %d, seq %d: err = %v", i, seq, err)
			}
			if int(b) > highest {
				highest = int(b)
				if seq != math.MaxUint64 {
					must = append(must, seq)
				}
			}
		}
		got := c.archived(t)
		archived := make(map[uint64]bool, len(got))
		for i, seq := range got {
			if i > 0 && seq <= got[i-1] { // strictly increasing: none twice
				t.Fatalf("archived seqs %v: %d after %d", got, seq, got[i-1])
			}
			archived[seq] = true
		}
		for _, seq := range must {
			if !archived[seq] {
				t.Fatalf("seq %d arrived above every earlier seq but was not archived: %v", seq, got)
			}
		}
	})
}
