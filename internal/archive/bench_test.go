package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bba/internal/telemetry"
)

// benchStore builds a store of n events in b.TempDir the way a collector
// leaves one: sealed blocks of 32Ki events and whatever is left over as a
// live WAL tail (100 000 events: three blocks and a 1 696-event tail), so
// the benchmarks below cover the tail path as well as the blocks.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s, err := Open(Config{Dir: b.TempDir(), CompactEvents: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	const batch = 512
	for i := 0; i < n; i += batch {
		end := i + batch
		if end > n {
			end = n
		}
		if err := s.Append("bench", batchOf(i, end)); err != nil {
			b.Fatal(err)
		}
	}
	if st := s.Stats(); st[0].Blocks == 0 || st[0].WALEvents == 0 {
		b.Fatalf("layout %+v, want sealed blocks and a WAL tail", st)
	}
	return s
}

// BenchmarkAggregate is the columnar rollup path: footer pruning plus
// column-slab folds, no row materialization.
func BenchmarkAggregate(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Aggregate(Query{Run: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows != n {
			b.Fatalf("rows = %d, want %d", r.Rows, n)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkJSONLAggregate is the equivalent row-wise baseline: read the
// exported JSONL journal and fold it line by line — what every analysis
// did before the columnar store existed.
func BenchmarkJSONLAggregate(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Export("bench", f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	var rd Block // no intern table: every string is a copy, as a plain parse makes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		st := new(aggState)
		rows := 0
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			line := data[:nl+1]
			data = data[nl+1:]
			e, err := rd.parseLine(line)
			if err != nil {
				b.Fatal(err)
			}
			st.addEvent(&e)
			rows++
		}
		if rows != n {
			b.Fatalf("rows = %d, want %d", rows, n)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkScanKind measures a selective scan: one kind out of eight, so
// dictionary-index filtering skips 7/8 rows before materializing.
func BenchmarkScanKind(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := s.Scan(Query{Run: "bench", Kinds: []telemetry.Kind{telemetry.RebufferStart}},
			func(telemetry.Event) bool { count++; return true })
		if err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("scan matched nothing")
		}
	}
}

// BenchmarkScanSession measures the needle query: one session of the
// store. Every block holds it here (testEvent cycles seven sessions), so
// this is the cost of a block that matches; the block that does not is a
// footer and one page (TestSessionScanReadsOnlyItsPages).
func BenchmarkScanSession(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := s.Scan(Query{Run: "bench", Session: "d0.w0.s3.BBA-1"},
			func(telemetry.Event) bool { count++; return true })
		if err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("scan matched nothing")
		}
	}
}

// BenchmarkExport measures the lossless re-render: every column of every
// block decoded and every row back to its journal line, then the tail.
func BenchmarkExport(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	var size countWriter
	if err := s.Export("bench", &size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w countWriter
		if err := s.Export("bench", &w); err != nil {
			b.Fatal(err)
		}
		if w != size {
			b.Fatalf("exported %d bytes, want %d", w, size)
		}
	}
}

// countWriter counts the bytes written to it.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// BenchmarkEncodeBlock measures sealing one default-size block: 65 536
// canonical lines parsed, re-render-checked, dictionary- and varint-encoded.
// It runs under the store's lock inside the Append that trips the threshold,
// so this is how long that Append's ACK — and every query — waits.
func BenchmarkEncodeBlock(b *testing.B) {
	lines := splitLines(batchOf(0, 1<<16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, _, err := encodeBlock("bench", lines)
		if err != nil || len(blk) == 0 {
			b.Fatalf("encodeBlock: %d bytes, %v", len(blk), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
}

// BenchmarkAppend measures the WAL ingest path the collector calls inline.
func BenchmarkAppend(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := batchOf(0, 64)
	b.SetBytes(int64(len(batch)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
}
