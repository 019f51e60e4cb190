package stats

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// refMerge is QuantileSketch.Merge as it was before it merged in place —
// a fresh slice per call, filled front to back — kept verbatim as the
// oracle the in-place merge is held to.
func refMerge(q *QuantileSketch, o QuantileSketch) error {
	if q.K < 1 {
		q.K = o.K
	}
	merged := make([]SketchEntry, 0, min(q.K, len(q.Entries)+len(o.Entries)))
	i, j := 0, 0
	for len(merged) < q.K && (i < len(q.Entries) || j < len(o.Entries)) {
		switch {
		case i == len(q.Entries):
			merged = append(merged, o.Entries[j])
			j++
		case j == len(o.Entries):
			merged = append(merged, q.Entries[i])
			i++
		case q.Entries[i].Hash < o.Entries[j].Hash:
			merged = append(merged, q.Entries[i])
			i++
		case q.Entries[i].Hash > o.Entries[j].Hash:
			merged = append(merged, o.Entries[j])
			j++
		default:
			return fmt.Errorf("stats: sketches share hash %d", q.Entries[i].Hash)
		}
	}
	q.Entries = merged
	q.Seen += o.Seen
	return nil
}

// decodeSketches turns fuzz bytes into the two sides of a merge: q's K
// (0 leaves it a zero-value sketch, the K-adopting path), o's K, how q's
// backing array is shaped (exact, spare capacity, or nil), then one sample
// per byte pair — which side, and a key from a small range so the sides
// sometimes share one.
func decodeSketches(data []byte) (q, o QuantileSketch) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v)
	}
	qK, oK, shape := next()%24, next()%24+1, next()%3
	q, o = QuantileSketch{K: qK}, NewQuantileSketch(oK)
	for i := 0; len(data) >= 2; i++ {
		side, key := next(), uint64(next()%96)
		x := float64(key)*0.5 - float64(i)
		if side%2 == 0 {
			_ = q.Add(x, key) // a duplicate key is refused; that is fine here
		} else {
			_ = o.Add(x, key)
		}
	}
	switch shape {
	case 0:
		q.Entries = slices.Clip(q.Entries)
	case 1:
		q.Entries = append(make([]SketchEntry, 0, len(q.Entries)+7), q.Entries...)
	default:
		if len(q.Entries) == 0 {
			q.Entries = nil
		}
	}
	return q, o
}

// checkMerge merges o into q both ways and requires the same sketch, the
// same error — which CheckMerge reports beforehand — o untouched, and — on
// a shared hash — q exactly as it was.
func checkMerge(t *testing.T, q, o QuantileSketch) {
	t.Helper()
	before := QuantileSketch{K: q.K, Entries: slices.Clone(q.Entries), Seen: q.Seen}
	oBefore := slices.Clone(o.Entries)
	want := QuantileSketch{K: q.K, Entries: slices.Clone(q.Entries), Seen: q.Seen}
	wantErr := refMerge(&want, o)
	if err := q.CheckMerge(o); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("CheckMerge error %v, reference %v", err, wantErr)
	}
	err := q.Merge(o)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Merge error %v, reference %v", err, wantErr)
	}
	if !slices.Equal(o.Entries, oBefore) {
		t.Fatal("Merge wrote into the sketch it merged from")
	}
	if err != nil {
		if !slices.Equal(q.Entries, before.Entries) || q.Seen != before.Seen {
			t.Fatalf("a failed Merge changed q: %+v, was %+v", q, before)
		}
		return
	}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("Merge = %+v\nreference %+v", q, want)
	}
}

func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte{})
	// Both sides under K, disjoint keys: everything survives.
	f.Add([]byte{8, 8, 0, 0, 1, 1, 2, 0, 3, 1, 4})
	// A zero-value q adopting o's K, with spare capacity.
	f.Add([]byte{0, 3, 1, 1, 5, 1, 6, 1, 7, 1, 8})
	// A shared key: the merge must fail and leave q alone.
	f.Add([]byte{4, 4, 2, 0, 9, 1, 9, 0, 10})
	// q full at K, o's smallest hashes displacing some of q's.
	f.Add([]byte{2, 5, 0, 0, 1, 0, 2, 0, 3, 1, 40, 1, 41, 1, 42, 1, 43})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, o := decodeSketches(data)
		checkMerge(t, q, o)
	})
}

// TestSketchMergeMatchesReference runs the fuzz oracle over a sweep of
// random sizes, including long merge chains into one accumulating sketch.
func TestSketchMergeMatchesReference(t *testing.T) {
	for k := 1; k <= 40; k += 3 {
		acc, ref := NewQuantileSketch(k), NewQuantileSketch(k)
		key := uint64(0)
		for shard := 0; shard < 30; shard++ {
			o := NewQuantileSketch(k)
			for n := (shard * 7) % (2*k + 3); n > 0; n-- {
				o.Add(float64(key%13), key)
				key++
			}
			checkMerge(t, QuantileSketch{K: acc.K, Entries: slices.Clone(acc.Entries), Seen: acc.Seen}, o)
			if err := acc.Merge(o); err != nil {
				t.Fatal(err)
			}
			if err := refMerge(&ref, o); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(acc, ref) {
				t.Fatalf("k=%d shard %d: merged chain %+v, reference %+v", k, shard, acc, ref)
			}
		}
	}
}

// TestSketchMergeAtKAllocatesNothing pins the fold's steady state: merging
// into a sketch that already holds K entries reuses its backing array.
func TestSketchMergeAtKAllocatesNothing(t *testing.T) {
	const k, runs = 64, 100
	q := NewQuantileSketch(k)
	key := uint64(0)
	for i := 0; i < 4*k; i++ {
		q.Add(float64(i), key)
		key++
	}
	shards := make([]QuantileSketch, runs+1) // AllocsPerRun calls once more to warm up
	for s := range shards {
		shards[s] = NewQuantileSketch(k)
		for i := 0; i < 2*k; i++ {
			shards[s].Add(float64(i), key)
			key++
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := q.Merge(shards[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("merging into a sketch at K allocated %v times, want 0", allocs)
	}
	if len(q.Entries) != k {
		t.Errorf("sketch holds %d entries after the merges, want %d", len(q.Entries), k)
	}
}
