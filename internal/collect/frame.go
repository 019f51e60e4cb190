// Package collect is the fleet telemetry collection pipeline: the
// client-side Shipper batches session events into sequence-numbered,
// checksummed frames and ships them over HTTP with retry from a bounded
// in-memory queue; the server-side Collector decodes frames, verifies
// checksums, dedups by (run, session, seq) so at-least-once delivery becomes
// exactly-once admission, and hands each admitted batch to its archive
// before acknowledging it.
//
// The paper's entire evidence base is per-session client logs shipped from
// millions of players to a central service and aggregated there (§3); the
// same collection substrate is what makes randomized experiments on a live
// service possible (Yan et al., NSDI 2020). This package is that substrate
// in miniature: a lossy, reordering, duplicating network sits between the
// player fleet and the archive, and the archive must not care.
//
// Delivery semantics. There is one lane: best-effort events with counted
// loss. Frames are keyed (run id, session id, seq). The shipper retries
// until the collector acknowledges or the retry budget runs out (a counted
// drop, never backpressure on the player). One sender per shipper settles
// each frame before sending the next, so a stream reaches the collector in
// seq order, apart from copies of frames already settled; the collector
// keeps one watermark per stream, admits a frame only above it — each key
// at most once, in increasing order — and acknowledges a fresh frame only
// after its batch is persisted. Shard accumulators do not travel here: the one place they
// cross a process boundary online is internal/coord.
package collect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PayloadKind identifies what a frame carries.
type PayloadKind uint8

// PayloadEvents is a batch of telemetry events encoded as journal JSONL
// lines (telemetry.AppendJSONL), newline-terminated. It is the only kind the
// collector admits; the kind byte stays in the wire format, and a frame
// carrying any other value decodes but is rejected at ingest.
const PayloadEvents PayloadKind = 1

// String returns the snake_case name used in collector metrics.
func (k PayloadKind) String() string {
	if k == PayloadEvents {
		return "events"
	}
	return "unknown"
}

// Frame is one unit of shipment. Run, Session and Seq form the dedup key:
// Seq increases per (Run, Session) sender stream, so replays and retries
// are recognizable however they arrive.
type Frame struct {
	// Run identifies the campaign or capture run (1–255 bytes).
	Run string
	// Session identifies the sender stream within the run; two processes
	// shipping the same run must use distinct Session ids.
	Session uint64
	// Seq is the frame's sequence number within (Run, Session).
	Seq uint64
	// Kind says how to interpret Payload.
	Kind PayloadKind
	// Payload is the frame body (at most MaxPayload bytes).
	Payload []byte
}

// Wire layout (little-endian):
//
//	magic   [2]byte  0xB3 0xAC
//	version uint8    1
//	kind    uint8
//	runLen  uint8    1..255
//	run     [runLen]byte
//	session uint64
//	seq     uint64
//	payLen  uint32   0..MaxPayload
//	payload [payLen]byte
//	crc     uint32   CRC-32C over everything above
//
// The encoding is canonical — decoding a valid frame and re-encoding it
// reproduces the input bytes exactly, the property the fuzz round-trip
// target pins.
const (
	frameVersion = 1
	// headerLen is the fixed part of the frame before the run id.
	headerLen = 5
	// tailLen is session + seq + payLen + crc.
	tailLen = 8 + 8 + 4 + 4
	// MaxPayload bounds a frame body; larger payloads must be split. It
	// also bounds what a decoder will buffer for one frame, so a corrupt
	// length field cannot demand unbounded memory.
	MaxPayload = 1 << 20
	// MaxFrame is the largest possible encoded frame.
	MaxFrame = headerLen + 255 + tailLen + MaxPayload
)

var (
	frameMagic = [2]byte{0xB3, 0xAC}
	crcTable   = crc32.MakeTable(crc32.Castagnoli)

	// ErrShortFrame reports a frame cut off mid-encoding: the decoder
	// needs more bytes. Stream readers treat it as "wait for more input";
	// datagram readers treat it as corruption.
	ErrShortFrame = errors.New("collect: short frame")
	// ErrBadFrame reports a structurally invalid frame (magic, version,
	// run length or payload length out of range).
	ErrBadFrame = errors.New("collect: bad frame")
	// ErrChecksum reports a frame whose CRC does not match its contents.
	ErrChecksum = errors.New("collect: frame checksum mismatch")
)

// AppendFrame appends the canonical encoding of f to dst. It panics if the
// run id or payload exceed the format's bounds — both are sized by the
// shipper, so an overflow is a programming error, not an input error.
func AppendFrame(dst []byte, f Frame) []byte {
	if len(f.Run) == 0 || len(f.Run) > 255 {
		panic(fmt.Sprintf("collect: run id length %d outside 1..255", len(f.Run)))
	}
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("collect: payload %d exceeds MaxPayload", len(f.Payload)))
	}
	start := len(dst)
	dst = append(dst, frameMagic[0], frameMagic[1], frameVersion, byte(f.Kind), byte(len(f.Run)))
	dst = append(dst, f.Run...)
	dst = binary.LittleEndian.AppendUint64(dst, f.Session)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// EncodedLen returns the encoded size of a frame with the given run id and
// payload lengths.
func EncodedLen(runLen, payloadLen int) int {
	return headerLen + runLen + tailLen + payloadLen
}

// DecodeFrame decodes the first frame in b, returning the frame and the
// number of bytes it consumed. The returned Frame's Run and Payload alias
// b — callers that retain them beyond b's lifetime must copy.
//
// ErrShortFrame means b ends mid-frame (a stream reader should read more);
// ErrBadFrame and ErrChecksum mean the bytes can never become a valid
// frame. DecodeFrame never panics, whatever the input: truncated, corrupt
// and adversarial length fields all surface as errors.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < headerLen {
		return Frame{}, 0, ErrShortFrame
	}
	if b[0] != frameMagic[0] || b[1] != frameMagic[1] {
		return Frame{}, 0, fmt.Errorf("%w: magic %02x%02x", ErrBadFrame, b[0], b[1])
	}
	if b[2] != frameVersion {
		return Frame{}, 0, fmt.Errorf("%w: version %d", ErrBadFrame, b[2])
	}
	runLen := int(b[4])
	if runLen == 0 {
		return Frame{}, 0, fmt.Errorf("%w: empty run id", ErrBadFrame)
	}
	off := headerLen + runLen
	if len(b) < off+20 {
		return Frame{}, 0, ErrShortFrame
	}
	session := binary.LittleEndian.Uint64(b[off:])
	seq := binary.LittleEndian.Uint64(b[off+8:])
	payLen := int(binary.LittleEndian.Uint32(b[off+16:]))
	if payLen > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d", ErrBadFrame, payLen)
	}
	total := off + 20 + payLen + 4
	if len(b) < total {
		return Frame{}, 0, ErrShortFrame
	}
	want := binary.LittleEndian.Uint32(b[total-4:])
	if got := crc32.Checksum(b[:total-4], crcTable); got != want {
		return Frame{}, 0, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return Frame{
		Run:     string(b[headerLen : headerLen+runLen]),
		Session: session,
		Seq:     seq,
		Kind:    PayloadKind(b[3]),
		Payload: b[off+20 : total-4],
	}, total, nil
}
