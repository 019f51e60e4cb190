package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bba/internal/units"
)

// TestDeferredReadsAsEager: a deferred trace answers through every read
// entry point what the eager trace of its composition answers, composing
// once, on the first read, whichever entry point that is; and Into over a
// deferred trace not yet read replaces its composition for good.
func TestDeferredReadsAsEager(t *testing.T) {
	cfg := MarkovConfig{Base: 3 * units.Mbps, Sigma: 0.8, MeanDwell: 4 * time.Second, Duration: 10 * time.Minute}
	compose := func(b *Builder) { b.Markov(cfg, rand.New(rand.NewSource(3))) }
	eager := Markov(cfg, rand.New(rand.NewSource(3)))
	reads := map[string]func(tr *Trace) any{
		"Total":        func(tr *Trace) any { return tr.Total() },
		"Segments":     func(tr *Trace) any { return tr.Segments() },
		"RateAt":       func(tr *Trace) any { return tr.RateAt(2 * time.Minute) },
		"BytesBetween": func(tr *Trace) any { return tr.BytesBetween(time.Minute, 3*time.Minute) },
		"DownloadTime": func(tr *Trace) any {
			d, ok := tr.DownloadTime(time.Minute, 1<<20)
			return [2]any{d, ok}
		},
		"Cursor": func(tr *Trace) any {
			d, _ := tr.Cursor().DownloadTime(time.Minute, 1<<20)
			return d
		},
		"Rates": func(tr *Trace) any { return tr.Rates(time.Second) },
		"Builder.Load": func(tr *Trace) any {
			var b Builder
			b.Load(tr)
			return [2]any{b.segs, b.total}
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			composed := 0
			tr := Deferred(func() *Builder {
				composed++
				var b Builder
				compose(&b)
				return &b
			})
			if composed != 0 {
				t.Fatal("Deferred composed before any read")
			}
			want := read(eager)
			for i := 0; i < 2; i++ {
				if got := read(tr); !reflect.DeepEqual(got, want) {
					t.Errorf("read %d: %v, the eager trace %v", i, got, want)
				}
				if composed != 1 {
					t.Fatalf("read %d: composed %d times, want once", i, composed)
				}
			}
		})
	}

	tr := Deferred(func() *Builder {
		t.Error("a deferred trace rebuilt by Into composed on its first read")
		return new(Builder)
	})
	var b Builder
	b.Markov(MarkovConfig{Base: units.Mbps, Duration: time.Minute}, rand.New(rand.NewSource(4)))
	want := append([]Segment(nil), b.segs...)
	if err := b.Into(tr); err != nil {
		t.Fatal(err)
	}
	if got := tr.Segments(); !reflect.DeepEqual(got, want) {
		t.Errorf("Into over a deferred trace: %v, want %v", got, want)
	}
}
