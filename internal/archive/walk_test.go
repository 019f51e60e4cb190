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
	"slices"
	"sort"
	"strings"
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

// TestQueryInternTableBounded: a store naming more distinct sessions than a
// reader's intern table holds — one block alone names more, six others
// fewer but more together, and so does the tail — still answers Scan,
// Aggregate and Export exactly, no reader it keeps holds a table past
// maxNames, and a warm rollup over it makes no string per dictionary entry:
// a dictionary past the table's room is one copy, as with no table. Over a
// small store, a second rollup copies no dictionary entry: its readers'
// tables already hold them.
func TestQueryInternTableBounded(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var events []telemetry.Event
	var journal []byte
	few := 3 * maxNames / 8
	sizes := []int{maxNames + maxNames/4, few, few, few, few, few, few, maxNames + maxNames/4}
	tail := sizes[len(sizes)-1]
	for k, n := range sizes {
		var batch []byte
		for range n {
			e := testEvent(len(events))
			e.Session = fmt.Sprintf("d0.w0.s%d.BBA-%d", len(events), len(events)%2)
			events = append(events, e)
			batch = telemetry.AppendJSONL(batch, e)
		}
		journal = append(journal, batch...)
		if err := s.Append("r", batch); err != nil {
			t.Fatal(err)
		}
		if k < len(sizes)-1 { // the last is the tail
			if err := s.Compact("r"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st[0].Blocks != len(sizes)-1 || st[0].WALEvents != tail {
		t.Fatalf("layout %+v, want %d blocks and a %d-event tail", st, len(sizes)-1, tail)
	}
	walkerWidths(t, func(t *testing.T) {
		for _, q := range []Query{{Run: "r"}, {Run: "r", Group: "BBA-1"}} {
			var got []telemetry.Event
			if err := s.Scan(q, func(e telemetry.Event) bool { got = append(got, e); return true }); err != nil {
				t.Fatal(err)
			}
			if want := referenceFilter(events, q); !slices.Equal(got, want) {
				t.Errorf("Scan %+v: %d events, not the reference's %d", q, len(got), len(want))
			}
		}
		roll, err := s.Aggregate(Query{Run: "r"})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRollup(events, Query{Run: "r"})
		sort.Slice(want, func(i, j int) bool { return want[i].Group < want[j].Group })
		if !slices.Equal(roll.Groups, want) {
			t.Errorf("Aggregate:\n got %+v\nwant %+v", roll.Groups, want)
		}
		var out bytes.Buffer
		if err := s.Export("r", &out); err != nil || !bytes.Equal(out.Bytes(), journal) {
			t.Errorf("Export: %d bytes, %v; want the %d-byte journal", out.Len(), err, len(journal))
		}
	})
	s.mu.Lock()
	most := 0
	for _, b := range s.idle {
		most = max(most, len(b.names))
	}
	s.mu.Unlock()
	if most == 0 || most > maxNames {
		t.Errorf("the largest intern table the store keeps holds %d strings, want 1 to %d", most, maxNames)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	before := mem.Mallocs
	if _, err := s.Aggregate(Query{Run: "r"}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&mem)
	n := mem.Mallocs - before
	t.Logf("a warm rollup over the large store made %d allocations", n)
	// At most one string per distinct tail value, as a table made per query
	// copies, and a few per query and block opened.
	if n > uint64(tail)+256 {
		t.Errorf("a warm rollup over %d blocks and a %d-session tail made %d allocations: it copied dictionary entries one by one", len(sizes)-1, tail, n)
	}

	small, err := Open(Config{Dir: t.TempDir(), CompactEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	long := strings.Repeat("x", 8<<10) // a copy of one session would show
	for i := 0; i < 64; i += 16 {
		var batch []byte
		for j := i; j < i+16; j++ {
			e := testEvent(j)
			e.Session = fmt.Sprintf("d0.w0.s%d.%s.BBA-%d", j%4, long, j%2)
			batch = telemetry.AppendJSONL(batch, e)
		}
		if err := small.Append("r", batch); err != nil {
			t.Fatal(err)
		}
	}
	rollup := func() error { _, err := small.Aggregate(Query{Run: "r"}); return err }
	if err := rollup(); err != nil {
		t.Fatal(err)
	}
	got := queryAlloc(t, rollup)
	t.Logf("a warm rollup allocated %d B", got)
	if got >= uint64(len(long)) {
		t.Errorf("a warm rollup of four blocks naming four %d-byte sessions allocated %d B: it copied dictionary entries", len(long), got)
	}
}
