package collect

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func popString(t *testing.T, q *queue) string {
	t.Helper()
	b, ok := q.Pop()
	if !ok {
		t.Fatalf("queue closed early")
	}
	return string(b)
}

func TestQueueFIFOMemory(t *testing.T) {
	q := newQueue(QueueConfig{MemFrames: 8})
	for i := 0; i < 5; i++ {
		if ok, err := q.Push([]byte(fmt.Sprintf("f%d", i))); !ok || err != nil {
			t.Fatalf("push %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < 5; i++ {
		if got := popString(t, q); got != fmt.Sprintf("f%d", i) {
			t.Fatalf("pop %d: %q", i, got)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("depth %d after drain", q.Len())
	}
}

func TestQueueDropNewestDefault(t *testing.T) {
	q := newQueue(QueueConfig{MemFrames: 2})
	q.Push([]byte("a"))
	q.Push([]byte("b"))
	if ok, err := q.Push([]byte("c")); ok || err != nil {
		t.Fatalf("overflow push accepted: %v %v", ok, err)
	}
	if s := q.Stats(); s.Dropped != 1 || s.Pushed != 2 {
		t.Fatalf("stats %+v", s)
	}
	if a, b := popString(t, q), popString(t, q); a != "a" || b != "b" {
		t.Fatalf("kept %q %q, want oldest", a, b)
	}
}

func TestQueueSpillFIFO(t *testing.T) {
	dir := t.TempDir()
	q := newQueue(QueueConfig{MemFrames: 2, SpillDir: dir})
	for i := 0; i < 6; i++ {
		if ok, err := q.Push([]byte(fmt.Sprintf("f%d", i))); !ok || err != nil {
			t.Fatalf("push %d: %v %v", i, ok, err)
		}
	}
	if s := q.Stats(); s.Spilled != 4 || s.Depth != 6 || s.SpillBytes == 0 {
		t.Fatalf("stats %+v", s)
	}
	// Drain two, then push two more: the new frames must still come out
	// after the spilled ones — FIFO holds across the spill boundary.
	if a, b := popString(t, q), popString(t, q); a != "f0" || b != "f1" {
		t.Fatalf("popped %q %q", a, b)
	}
	q.Push([]byte("f6"))
	q.Push([]byte("f7"))
	for i := 2; i < 8; i++ {
		if got := popString(t, q); got != fmt.Sprintf("f%d", i) {
			t.Fatalf("pop %d: %q", i, got)
		}
	}
	if s := q.Stats(); s.Depth != 0 || s.SpillBytes != 0 {
		t.Fatalf("stats after drain %+v", s)
	}
	// Drained segments are removed from disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files left after drain", len(ents))
	}
}

func TestQueueSpillCap(t *testing.T) {
	dir := t.TempDir()
	frame := make([]byte, 1024)
	q := newQueue(QueueConfig{MemFrames: 1, SpillDir: dir, MaxSpillBytes: 4096})
	q.Push(frame) // memory
	accepted := 1
	for i := 0; i < 10; i++ {
		if ok, _ := q.Push(frame); ok {
			accepted++
		}
	}
	// 1 in memory + ⌊4096/1028⌋ = 3 on disk.
	if accepted != 4 {
		t.Fatalf("accepted %d frames, want 4", accepted)
	}
	if s := q.Stats(); s.Dropped != 7 {
		t.Fatalf("stats %+v", s)
	}
	// A full spill is a counted drop, never an error the sender must handle.
	if ok, err := q.Push(frame); ok || err != nil {
		t.Fatalf("push into full spill: ok=%v err=%v, want a counted drop", ok, err)
	}
	if s := q.Stats(); s.Dropped != 8 {
		t.Fatalf("stats %+v", s)
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := newQueue(QueueConfig{})
	got := make(chan string, 1)
	go func() {
		b, ok := q.Pop()
		if !ok {
			got <- ""
			return
		}
		got <- string(b)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push([]byte("late"))
	select {
	case s := <-got:
		if s != "late" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Pop never woke")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue(QueueConfig{})
	q.Push([]byte("a"))
	q.Close()
	if got := popString(t, q); got != "a" {
		t.Fatalf("got %q", got)
	}
	if _, ok := q.Pop(); ok {
		t.Fatalf("Pop after drain on closed queue")
	}
	if _, err := q.Push([]byte("b")); !errors.Is(err, errQueueClosed) {
		t.Fatalf("push after close: %v", err)
	}
}

func TestQueueDamagedSegment(t *testing.T) {
	dir := t.TempDir()
	q := newQueue(QueueConfig{MemFrames: 1, SpillDir: dir})
	q.Push([]byte("mem"))
	q.Push([]byte("disk0")) // segment 0
	// A frame too big to share segment 0 forces a rotation, sealing the
	// first segment so it can be corrupted independently.
	big := make([]byte, segMaxBytes)
	copy(big, "big")
	if ok, err := q.Push(big); !ok || err != nil {
		t.Fatalf("big push: %v %v", ok, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("spill files: %v %d", err, len(ents))
	}
	// Corrupt the older segment; its frame must be counted lost — the
	// queue moves on to the next segment instead of wedging.
	name := ents[0].Name()
	if ents[1].Name() < name {
		name = ents[1].Name()
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte{0xFF, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := popString(t, q); got != "mem" {
		t.Fatalf("got %q", got)
	}
	got, ok := q.Pop()
	if !ok || len(got) != segMaxBytes || string(got[:3]) != "big" {
		t.Fatalf("pop after damaged segment: ok=%v len=%d", ok, len(got))
	}
	if s := q.Stats(); s.Dropped != 1 {
		t.Fatalf("stats %+v, want damaged frame counted dropped", s)
	}
}

func TestQueueConcurrent(t *testing.T) {
	q := newQueue(QueueConfig{MemFrames: 64, SpillDir: t.TempDir()})
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			for {
				if ok, err := q.Push([]byte{byte(i), byte(i >> 8)}); ok {
					break
				} else if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				time.Sleep(time.Microsecond)
			}
		}
	}()
	seen := 0
	for seen < n {
		b, ok := q.Pop()
		if !ok {
			t.Fatalf("queue closed at %d", seen)
		}
		if got := int(b[0]) | int(b[1])<<8; got != seen {
			t.Fatalf("frame %d out of order: %d", seen, got)
		}
		seen++
	}
	wg.Wait()
	q.Close()
}

// TestQueueCloseRemovesSpill is the regression test for the leaked-spill
// bug: Close documented "spill segments left on disk are removed" but
// never removed them, leaking .q files on every shutdown with a disk
// backlog. Close must discard the disk backlog with honest accounting —
// frames counted Dropped, Depth and SpillBytes rewound — while in-memory
// frames stay poppable.
func TestQueueCloseRemovesSpill(t *testing.T) {
	dir := t.TempDir()
	q := newQueue(QueueConfig{MemFrames: 2, SpillDir: dir})
	for i := 0; i < 8; i++ {
		if ok, err := q.Push([]byte(fmt.Sprintf("f%d", i))); !ok || err != nil {
			t.Fatalf("push %d: %v %v", i, ok, err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) == 0 {
		t.Fatal("test setup: nothing spilled")
	}
	q.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files left after Close, want 0", len(ents))
	}
	s := q.Stats()
	if s.Dropped != 6 || s.Depth != 2 || s.SpillBytes != 0 {
		t.Fatalf("stats after Close %+v, want 6 dropped, depth 2, 0 spill bytes", s)
	}
	// The in-memory prefix still drains.
	if a, b := popString(t, q), popString(t, q); a != "f0" || b != "f1" {
		t.Fatalf("drained %q %q after Close", a, b)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop returned a frame from the discarded disk backlog")
	}
	q.Close() // idempotent
}

// TestQueueDamagedSegmentAccounting extends the damaged-segment recovery
// test to the full ledger: the lost frames leave Depth and SpillBytes as
// well as entering Dropped, and the damaged file is removed from disk.
func TestQueueDamagedSegmentAccounting(t *testing.T) {
	dir := t.TempDir()
	q := newQueue(QueueConfig{MemFrames: 1, SpillDir: dir})
	q.Push([]byte("mem"))
	q.Push([]byte("d0"))
	q.Push([]byte("d1")) // same segment as d0
	big := make([]byte, segMaxBytes)
	copy(big, "big")
	if ok, err := q.Push(big); !ok || err != nil {
		t.Fatalf("big push: %v %v", ok, err)
	}
	before := q.Stats()
	if before.Depth != 4 {
		t.Fatalf("setup depth %d, want 4", before.Depth)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("spill files: %v %d", err, len(ents))
	}
	oldest := ents[0].Name()
	if ents[1].Name() < oldest {
		oldest = ents[1].Name()
	}
	if err := os.Truncate(filepath.Join(dir, oldest), 3); err != nil {
		t.Fatal(err)
	}
	if got := popString(t, q); got != "mem" {
		t.Fatalf("got %q", got)
	}
	// Popping past the damaged segment recovers into the intact one.
	if got, ok := q.Pop(); !ok || string(got[:3]) != "big" {
		t.Fatalf("recovery pop: ok=%v", ok)
	}
	s := q.Stats()
	if s.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2 (both frames of the damaged segment)", s.Dropped)
	}
	if s.Depth != 0 || s.SpillBytes != 0 {
		t.Fatalf("Depth = %d SpillBytes = %d after drain, want 0/0", s.Depth, s.SpillBytes)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("%d spill files left, want 0", len(ents))
	}
}
