package collect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// QueueConfig bounds the shipper's frame queue.
type QueueConfig struct {
	// MemFrames is the in-memory FIFO capacity (default 256 frames).
	MemFrames int
	// SpillDir, when non-empty, receives overflow frames as on-disk
	// segment files; empty disables spilling, so overflow drops.
	SpillDir string
	// MaxSpillBytes bounds the on-disk spill (default 32 MiB). Once memory
	// and spill are both full the incoming frame is dropped and counted:
	// the newest data loses, the oldest backlog is kept.
	MaxSpillBytes int64
}

func (c *QueueConfig) applyDefaults() {
	if c.MemFrames <= 0 {
		c.MemFrames = 256
	}
	if c.MaxSpillBytes <= 0 {
		c.MaxSpillBytes = 32 << 20
	}
}

// QueueStats counts queue activity. Dropped is the explicit loss account:
// every frame the pipeline gave up on is in it, nothing disappears
// silently.
type QueueStats struct {
	Pushed  int64
	Popped  int64
	Dropped int64
	// Spilled counts frames written to disk (cumulative).
	Spilled int64
	// Depth is the current frame count across memory and disk.
	Depth int64
	// SpillBytes is the current on-disk byte count.
	SpillBytes int64
}

// errSpillFull reports that the spill has reached MaxSpillBytes (or that
// the frame alone exceeds it): the frame is dropped.
var errSpillFull = errors.New("collect: spill full")

// errQueueClosed reports Push after Close.
var errQueueClosed = errors.New("collect: queue closed")

// queue is a bounded FIFO of encoded frames: an in-memory ring backed by
// on-disk segment files, after the xrootd-monitoring-shoveler's
// memory-then-disk confirmation queue. Push never blocks; Pop blocks until
// a frame or Close. Safe for concurrent use.
//
// FIFO is preserved across the spill boundary: memory holds the oldest
// frames; once any disk segment exists, new pushes go to disk and Pop
// refills memory from the oldest segment when memory drains.
type queue struct {
	cfg QueueConfig

	mu     sync.Mutex
	cond   *sync.Cond
	mem    [][]byte
	segs   []*spillSeg
	seq    int // next segment file number
	closed bool
	stats  QueueStats
}

// spillSeg is one on-disk segment of length-prefixed frames.
type spillSeg struct {
	path   string
	f      *os.File // open while the segment is the append tail
	frames int
	bytes  int64
}

// segMaxBytes rotates spill segments, bounding how much one Pop refill
// reads into memory and how many frames one damaged segment loses.
const segMaxBytes = 1 << 20

func newQueue(cfg QueueConfig) *queue {
	cfg.applyDefaults()
	q := &queue{cfg: cfg}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues an encoded frame, copying it. When the queue is exhausted
// the frame is dropped and the drop is counted. The returned
// bool reports whether the frame was accepted; the error is a spill I/O
// failure or a closed queue.
func (q *queue) Push(frame []byte) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, errQueueClosed
	}
	// Memory is only for the oldest prefix: once anything is on disk,
	// later frames must follow it to disk to stay FIFO.
	if len(q.segs) == 0 && len(q.mem) < q.cfg.MemFrames {
		q.memPush(frame)
		return true, nil
	}
	if q.cfg.SpillDir != "" {
		if err := q.spill(frame); err == nil {
			q.stats.Pushed++
			q.stats.Depth++
			q.cond.Signal()
			return true, nil
		} else if !errors.Is(err, errSpillFull) {
			return false, err
		}
	}
	q.stats.Dropped++
	return false, nil
}

// memPush appends to the in-memory ring (caller holds mu).
func (q *queue) memPush(frame []byte) {
	q.mem = append(q.mem, append([]byte(nil), frame...))
	q.stats.Pushed++
	q.stats.Depth++
	q.cond.Signal()
}

// spill appends the frame to the tail segment, rotating at segMaxBytes.
// Caller holds mu.
func (q *queue) spill(frame []byte) error {
	need := int64(4 + len(frame))
	if q.stats.SpillBytes+need > q.cfg.MaxSpillBytes {
		return errSpillFull
	}
	tail := q.tailSeg()
	if tail == nil || tail.f == nil || tail.bytes+need > segMaxBytes {
		f, err := os.CreateTemp(q.cfg.SpillDir, fmt.Sprintf("spill-%06d-*.q", q.seq))
		if err != nil {
			return fmt.Errorf("collect: spill segment: %w", err)
		}
		q.seq++
		if tail != nil && tail.f != nil {
			tail.f.Close()
			tail.f = nil
		}
		tail = &spillSeg{path: f.Name(), f: f}
		q.segs = append(q.segs, tail)
	}
	var lp [4]byte
	binary.LittleEndian.PutUint32(lp[:], uint32(len(frame)))
	if _, err := tail.f.Write(lp[:]); err != nil {
		return fmt.Errorf("collect: spill write: %w", err)
	}
	if _, err := tail.f.Write(frame); err != nil {
		return fmt.Errorf("collect: spill write: %w", err)
	}
	tail.frames++
	tail.bytes += need
	q.stats.SpillBytes += need
	q.stats.Spilled++
	return nil
}

func (q *queue) tailSeg() *spillSeg {
	if len(q.segs) == 0 {
		return nil
	}
	return q.segs[len(q.segs)-1]
}

// Pop blocks until a frame is available or the queue closes; ok=false
// means closed and drained.
func (q *queue) Pop() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.mem) == 0 && len(q.segs) > 0 {
			if err := q.refill(); err != nil {
				// A damaged spill segment loses its frames; count them
				// dropped rather than wedging the queue.
				seg := q.segs[0]
				q.segs = q.segs[1:]
				q.stats.Dropped += int64(seg.frames)
				q.stats.Depth -= int64(seg.frames)
				q.stats.SpillBytes -= seg.bytes
				os.Remove(seg.path)
				continue
			}
		}
		if len(q.mem) > 0 {
			frame := q.mem[0]
			q.mem = q.mem[1:]
			q.stats.Popped++
			q.stats.Depth--
			return frame, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// refill loads the oldest disk segment into memory. Caller holds mu.
func (q *queue) refill() error {
	seg := q.segs[0]
	if seg.f != nil {
		seg.f.Close()
		seg.f = nil
	}
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	frames := make([][]byte, 0, seg.frames)
	for off := 0; off+4 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || off+n > len(data) {
			return fmt.Errorf("collect: corrupt spill segment %s", filepath.Base(seg.path))
		}
		frames = append(frames, data[off:off+n])
		off += n
	}
	if len(frames) != seg.frames {
		return fmt.Errorf("collect: spill segment %s holds %d frames, recorded %d",
			filepath.Base(seg.path), len(frames), seg.frames)
	}
	q.segs = q.segs[1:]
	q.stats.SpillBytes -= seg.bytes
	os.Remove(seg.path)
	q.mem = append(q.mem, frames...)
	return nil
}

// Len returns the current queued frame count.
func (q *queue) Len() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats.Depth
}

// Stats returns a snapshot of the queue counters.
func (q *queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Close wakes blocked Pops; in-memory frames remain poppable until
// drained. The disk backlog is discarded: spill segments are closed and
// removed, their frames counted in Dropped — after Close no sender will
// drain them, and .q files leaking across restarts is worse than honest,
// counted loss. Shipper.Close flushes the queue before closing it, so the
// normal shutdown path has nothing on disk to lose.
func (q *queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, seg := range q.segs {
		if seg.f != nil {
			seg.f.Close()
		}
		os.Remove(seg.path)
		q.stats.Dropped += int64(seg.frames)
		q.stats.Depth -= int64(seg.frames)
		q.stats.SpillBytes -= seg.bytes
	}
	q.segs = nil
	q.cond.Broadcast()
}
