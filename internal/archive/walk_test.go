package archive

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"bba/internal/telemetry"
)

// walkerWidths runs fn at GOMAXPROCS 1, 2 and 4, so a walk fans out to one
// worker, to two, and to as many as four, whatever the machine.
func walkerWidths(t *testing.T, fn func(t *testing.T)) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), fn)
	}
}

// idleReaders is how many readers s holds between queries.
func (s *Store) idleReaders() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle)
}

// settled fails t unless every reader a query over s took is back in the
// store — want of them — and the goroutines are down to before: a worker
// still parked would hold one of each.
func settled(t *testing.T, s *Store, want, before int) {
	t.Helper()
	if got := s.idleReaders(); got != want {
		t.Errorf("the store holds %d idle readers after the query, want the %d it took", got, want)
	}
	// A worker that has called Done may not have exited yet; one still
	// parked on a channel never does. Its exit after Done is its deferred
	// return, microseconds even on a loaded CPU, so the 2 s wait is the
	// margin, not a measurement: only a parked worker outlasts it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the query, %d before it", n, before)
	}
}

// TestScanCallbackIsSerialAndOrdered: while workers decode blocks ahead, fn
// runs on the caller's goroutine only, one call at a time, in admission
// order. The counter is deliberately unsynchronised: under -race, two calls
// that overlap are a reported race, and a call out of order shows in the
// sequence.
func TestScanCallbackIsSerialAndOrdered(t *testing.T) {
	const n = 8*128 + 10 // eight blocks and a tail
	s, _ := populate(t, n)
	want := splitLines(batchOf(0, n))
	walkerWidths(t, func(t *testing.T) {
		calls := 0
		err := s.Scan(Query{Run: "run1"}, func(e telemetry.Event) bool {
			if calls < len(want) && !bytes.Equal(telemetry.AppendJSONL(nil, e), want[calls]) {
				t.Errorf("call %d is not event %d of the journal", calls, calls)
			}
			calls++
			return true
		})
		if err != nil || calls != len(want) {
			t.Fatalf("Scan called fn %d times, %v; want %d calls", calls, err, len(want))
		}
	})
}

// TestWalkerStopsOnEarlyStop: a query stopped early — fn returning false, or
// /query cut at its limit — returns with every worker goroutine gone and
// every reader it took back in the store.
func TestWalkerStopsOnEarlyStop(t *testing.T) {
	const blocks = 6
	walkerWidths(t, func(t *testing.T) {
		s, _ := populate(t, 128*blocks+10)
		readers := 1 + min(runtime.GOMAXPROCS(0), blocks, maxWorkers)
		for _, stopAt := range []int{1, 128 + 3, 128*blocks - 1, 128*blocks + 2} {
			before := runtime.NumGoroutine()
			calls := 0
			err := s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool { calls++; return calls < stopAt })
			if err != nil || calls != stopAt {
				t.Fatalf("stop at %d: fn called %d times, %v", stopAt, calls, err)
			}
			settled(t, s, readers, before)
		}

		mux := http.NewServeMux()
		QueryHandler{Store: s}.Register(mux)
		before := runtime.NumGoroutine()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?run=run1&kind=chunk_complete&limit=5", nil))
		if rec.Code != http.StatusOK || rec.Header().Get(TruncatedHeader) != "1" || bytes.Count(rec.Body.Bytes(), []byte("\n")) != 5 {
			t.Fatalf("status %d, %s %q, %d bytes: want 5 events, cut", rec.Code, TruncatedHeader, rec.Header().Get(TruncatedHeader), rec.Body.Len())
		}
		settled(t, s, readers, before)
	})
}

// flipPage flips one byte of the named page's payload in block seq of run
// r under dir: its CRC no longer matches, the footer still does.
func flipPage(t *testing.T, dir string, seq int, page string) {
	t.Helper()
	path := filepath.Join(dir, "r", blockFile(seq))
	blk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range b.ft.Pages {
		if pg.Name == page {
			blk[pg.Off+pg.Len/2] ^= 0x01
			if err := os.WriteFile(path, blk, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("block %d has no page %q", seq, page)
}

// TestWalkerStopsInOrderOnCorruptBlock: with a page of block k of 5 damaged,
// Scan hands fn exactly the events of the blocks before k, then fails with
// ErrBadBlock, however far ahead the workers have decoded; Export fails and
// writes nothing of block k or after it.
func TestWalkerStopsInOrderOnCorruptBlock(t *testing.T) {
	const blocks, k = 5, 3
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < blocks; i++ {
		if err := s.Append("r", batchOf(64*i, 64*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	flipPage(t, dir, k, "at_ns")
	before := splitLines(batchOf(0, 64*(k-1)))
	walkerWidths(t, func(t *testing.T) {
		var got [][]byte
		err := s.Scan(Query{Run: "r"}, func(e telemetry.Event) bool {
			got = append(got, telemetry.AppendJSONL(nil, e))
			return true
		})
		if !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Scan error %v, want ErrBadBlock", err)
		}
		if len(got) != len(before) {
			t.Fatalf("Scan handed fn %d events before failing, want the %d of blocks 1 to %d", len(got), len(before), k-1)
		}
		for i := range got {
			if !bytes.Equal(got[i], before[i]) {
				t.Fatalf("event %d is not the journal's", i)
			}
		}
		var out bytes.Buffer
		if err := s.Export("r", &out); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Export error %v, want ErrBadBlock", err)
		}
		if !bytes.HasPrefix(batchOf(0, 64*(k-1)), out.Bytes()) {
			t.Fatalf("Export wrote %d bytes that are not a prefix of blocks 1 to %d", out.Len(), k-1)
		}
	})
}

// TestScanCallbackMayQueryTheStore: fn runs a rollup on the very store it
// is scanning, whose readers the scan holds. Taking a reader never waits, so
// this finishes.
func TestScanCallbackMayQueryTheStore(t *testing.T) {
	const n = 6*128 + 10
	s, _ := populate(t, n)
	walkerWidths(t, func(t *testing.T) {
		done := make(chan error, 1)
		go func() {
			calls := 0
			done <- s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool {
				if calls++; calls%100 != 1 {
					return true
				}
				r, err := s.Aggregate(Query{Run: "run1"})
				if err != nil || r.Rows != n {
					t.Errorf("the nested rollup: %d rows, %v; want %d", r.Rows, err, n)
				}
				return true
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			// The scan and its nested rollups take milliseconds (under -race,
			// tens); 30 s is the margin that tells a deadlock — a rollup
			// waiting on a reader the scan holds — from a slow machine.
			t.Fatal("a Scan whose callback queries the same store did not finish")
		}
	})
}

// TestReaderSetBounded: however many queries ran at once, the store keeps no
// more idle readers than maxIdleReaders — each holds a block's slabs — and
// none after Close.
func TestReaderSetBounded(t *testing.T) {
	const n = 6*128 + 10
	s, _ := populate(t, n)
	journal := batchOf(0, n)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			if err := s.Export("run1", &out); err != nil || !bytes.Equal(out.Bytes(), journal) {
				t.Errorf("Export: %d bytes, %v", out.Len(), err)
			}
			if _, err := s.Aggregate(Query{Run: "run1"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := s.idleReaders(); n == 0 || n > maxIdleReaders {
		t.Errorf("%d idle readers after 8 concurrent queries, want 1 to %d", n, maxIdleReaders)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.idleReaders(); n != 0 {
		t.Errorf("%d idle readers after Close, want none", n)
	}
}
