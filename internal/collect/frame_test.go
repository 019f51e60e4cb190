package collect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Run: "r", Session: 0, Seq: 0, Kind: PayloadEvents, Payload: nil},
		{Run: "campaign-7", Session: 42, Seq: 9, Kind: PayloadKind(3), Payload: []byte(`{"shard":3}`)},
		{Run: strings.Repeat("x", 255), Session: ^uint64(0), Seq: ^uint64(0), Kind: PayloadKind(4), Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Run: "u", Session: 1, Seq: 2, Kind: PayloadKind(2), Payload: []byte("{}")},
	}
	for _, want := range cases {
		enc := AppendFrame(nil, want)
		if len(enc) != EncodedLen(len(want.Run), len(want.Payload)) {
			t.Fatalf("EncodedLen %d, encoded %d", EncodedLen(len(want.Run), len(want.Payload)), len(enc))
		}
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if got.Run != want.Run || got.Session != want.Session || got.Seq != want.Seq || got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
		// Canonical: re-encoding the decoded frame reproduces the bytes.
		if re := AppendFrame(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode differs from original")
		}
	}
}

func TestDecodeFrameStream(t *testing.T) {
	a := AppendFrame(nil, Frame{Run: "r", Seq: 1, Kind: PayloadEvents, Payload: []byte("one\n")})
	b := AppendFrame(nil, Frame{Run: "r", Seq: 2, Kind: PayloadEvents, Payload: []byte("two\n")})
	stream := append(append([]byte(nil), a...), b...)
	f1, n1, err := DecodeFrame(stream)
	if err != nil || f1.Seq != 1 {
		t.Fatalf("first frame: %v %+v", err, f1)
	}
	f2, n2, err := DecodeFrame(stream[n1:])
	if err != nil || f2.Seq != 2 {
		t.Fatalf("second frame: %v %+v", err, f2)
	}
	if n1+n2 != len(stream) {
		t.Fatalf("consumed %d of %d", n1+n2, len(stream))
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	enc := AppendFrame(nil, Frame{Run: "run", Session: 5, Seq: 7, Kind: PayloadEvents, Payload: []byte("payload bytes")})
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeFrame(enc[:n]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix %d/%d: got %v, want ErrShortFrame", n, len(enc), err)
		}
	}
}

func TestDecodeFrameCorrupt(t *testing.T) {
	enc := AppendFrame(nil, Frame{Run: "run", Session: 5, Seq: 7, Kind: PayloadEvents, Payload: []byte("payload")})
	// Any single flipped bit must surface as an error, never a panic or a
	// silently different frame.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
}

func TestDecodeFrameBad(t *testing.T) {
	valid := AppendFrame(nil, Frame{Run: "r", Kind: PayloadEvents, Payload: []byte("x")})

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 0x00
	if _, _, err := DecodeFrame(badMagic); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: %v", err)
	}

	badVersion := append([]byte(nil), valid...)
	badVersion[2] = 99
	if _, _, err := DecodeFrame(badVersion); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad version: %v", err)
	}

	emptyRun := append([]byte(nil), valid...)
	emptyRun[4] = 0
	if _, _, err := DecodeFrame(emptyRun); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty run: %v", err)
	}

	// An adversarial payload length must be rejected before any buffering,
	// not satisfied with ErrShortFrame forever by a stream reader.
	hugeLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeLen[headerLen+1+16:], ^uint32(0))
	if _, _, err := DecodeFrame(hugeLen); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("huge payload length: %v", err)
	}

	checksum := append([]byte(nil), valid...)
	checksum[len(checksum)-1] ^= 0xFF
	if _, _, err := DecodeFrame(checksum); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum: %v", err)
	}
}

func TestAppendFramePanics(t *testing.T) {
	mustPanic := func(name string, f Frame) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		AppendFrame(nil, f)
	}
	mustPanic("empty run", Frame{Run: "", Kind: PayloadEvents})
	mustPanic("long run", Frame{Run: strings.Repeat("x", 256), Kind: PayloadEvents})
	mustPanic("big payload", Frame{Run: "r", Kind: PayloadEvents, Payload: make([]byte, MaxPayload+1)})
}

func TestPayloadKindNames(t *testing.T) {
	if PayloadEvents != 1 || PayloadEvents.String() != "events" {
		t.Fatalf("PayloadEvents = %d %q: the wire value and metric label are fixed", PayloadEvents, PayloadEvents)
	}
	for _, k := range []PayloadKind{0, 2, 3, 4, 200} {
		if k.String() != "unknown" {
			t.Fatalf("kind %d stringifies as %q, want unknown", k, k)
		}
	}
}
