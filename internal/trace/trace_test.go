package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bba/internal/stats"
	"bba/internal/units"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
	if _, err := New([]Segment{{Duration: 0, Rate: units.Mbps}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := New([]Segment{{Duration: time.Second, Rate: -1}}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := New([]Segment{{Duration: time.Second, Rate: 0}}); err != nil {
		t.Error("zero rate (outage) should be valid")
	}
}

// TestNewRejectsOutOfRange holds New to what a packed segment holds: its
// start in 56 bits of nanoseconds and its rate in 40 bits of b/s. A trace
// that reaches 2^56 ns or a rate of 2^40 b/s is refused, and the error
// names the segment, where a total past int64 used to wrap negative and
// be accepted. Everything up to the limits round-trips exactly.
func TestNewRejectsOutOfRange(t *testing.T) {
	const longest = time.Duration(1<<56 - 1)
	good := map[string][]Segment{
		"1000 Gb/s for an hour": Constant(1000*units.Gbps, time.Hour).Segments(),
		"highest rate":          {{Duration: time.Second, Rate: 1<<40 - 1}, {Duration: time.Second, Rate: 0}},
		"longest total":         {{Duration: longest - time.Second, Rate: units.Mbps}, {Duration: time.Second, Rate: 1<<40 - 1}},
	}
	for name, segs := range good {
		tr, err := New(segs)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := tr.Segments(); !reflect.DeepEqual(got, segs) {
			t.Errorf("%s: Segments() = %v, want %v", name, got, segs)
		}
		last := segs[len(segs)-1]
		if at := tr.Total() - last.Duration; tr.RateAt(at) != last.Rate {
			t.Errorf("%s: RateAt(%v) = %v, want %v", name, at, tr.RateAt(at), last.Rate)
		}
	}
	bad := []struct {
		name string
		segs []Segment
		csv  string // when set, the trace is read from it instead
		seg  int    // the segment the error must name
	}{
		{name: "negative rate", segs: []Segment{{Duration: time.Second, Rate: units.Mbps}, {Duration: time.Second, Rate: -1}}, seg: 1},
		{name: "zero duration", segs: []Segment{{Duration: time.Second, Rate: units.Mbps}, {Duration: 0, Rate: units.Mbps}}, seg: 1},
		{name: "rate of 2^40 b/s", segs: []Segment{{Duration: time.Second, Rate: units.Mbps}, {Duration: time.Second, Rate: 1 << 40}}, seg: 1},
		{name: "total past 2^56 ns", segs: []Segment{{Duration: 1 << 55, Rate: units.Mbps}, {Duration: 1 << 55, Rate: units.Mbps}}, seg: 1},
		{name: "total past int64", segs: []Segment{{Duration: time.Hour, Rate: units.Mbps}, {Duration: math.MaxInt64, Rate: units.Mbps}}, seg: 1},
		{name: "CSV of 1e300 s", csv: "1e300,1000000\n1e300,2000000\n1,3000000\n", seg: 0},
	}
	for _, c := range bad {
		var tr *Trace
		var err error
		if c.csv != "" {
			tr, err = ReadCSV(strings.NewReader(c.csv))
		} else {
			tr, err = New(c.segs)
		}
		if err == nil {
			t.Errorf("%s: accepted, Total() = %v", c.name, tr.Total())
			continue
		}
		if want := fmt.Sprintf("segment %d ", c.seg); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, want)
		}
	}
}

func TestNewCopiesInput(t *testing.T) {
	segs := []Segment{{Duration: time.Second, Rate: units.Mbps}}
	tr := MustNew(segs)
	segs[0].Rate = 5 * units.Mbps
	if tr.RateAt(0) != units.Mbps {
		t.Error("trace aliases caller's slice")
	}
}

func TestRateAt(t *testing.T) {
	tr := MustNew([]Segment{
		{Duration: 10 * time.Second, Rate: 5 * units.Mbps},
		{Duration: 20 * time.Second, Rate: 1 * units.Mbps},
	})
	cases := []struct {
		at   time.Duration
		want units.BitRate
	}{
		{-time.Second, 5 * units.Mbps},
		{0, 5 * units.Mbps},
		{9*time.Second + 999*time.Millisecond, 5 * units.Mbps},
		{10 * time.Second, 1 * units.Mbps},
		{29 * time.Second, 1 * units.Mbps},
		{1000 * time.Second, 1 * units.Mbps}, // persists past the end
	}
	for _, c := range cases {
		if got := tr.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestBytesBetween(t *testing.T) {
	tr := MustNew([]Segment{
		{Duration: 10 * time.Second, Rate: 8 * units.Mbps}, // 1 MB/s
		{Duration: 10 * time.Second, Rate: 4 * units.Mbps}, // 0.5 MB/s
	})
	cases := []struct {
		from, to time.Duration
		want     int64
	}{
		{0, 10 * time.Second, 10_000_000},
		{0, 20 * time.Second, 15_000_000},
		{5 * time.Second, 15 * time.Second, 7_500_000},
		{10 * time.Second, 30 * time.Second, 10_000_000}, // last segment persists
		{5 * time.Second, 5 * time.Second, 0},
		{10 * time.Second, 5 * time.Second, 0},
		{-5 * time.Second, 5 * time.Second, 5_000_000},
	}
	for _, c := range cases {
		if got := tr.BytesBetween(c.from, c.to); got != c.want {
			t.Errorf("BytesBetween(%v,%v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestDownloadTime(t *testing.T) {
	tr := MustNew([]Segment{
		{Duration: 4 * time.Second, Rate: 2 * units.Mbps},
		{Duration: 10 * time.Second, Rate: 8 * units.Mbps},
	})
	// 1 MB starting at t=0: first 4s deliver 1 Mb/s·... — 2Mb/s·4s = 1 MB
	// exactly, so the download completes exactly at 4s.
	d, ok := tr.DownloadTime(0, 1_000_000)
	if !ok || d != 4*time.Second {
		t.Errorf("DownloadTime = %v, %v; want 4s, true", d, ok)
	}
	// Spanning into the second segment: 2 MB total, 1 MB in first 4s, the
	// second MB at 1 MB/s takes 1s.
	d, ok = tr.DownloadTime(0, 2_000_000)
	if !ok || d != 5*time.Second {
		t.Errorf("DownloadTime = %v, %v; want 5s, true", d, ok)
	}
	// Starting mid-trace.
	d, ok = tr.DownloadTime(4*time.Second, 1_000_000)
	if !ok || d != time.Second {
		t.Errorf("DownloadTime mid = %v, %v; want 1s, true", d, ok)
	}
	// Zero bytes.
	if d, ok := tr.DownloadTime(0, 0); !ok || d != 0 {
		t.Errorf("zero bytes = %v, %v", d, ok)
	}
}

func TestDownloadTimeTerminalOutage(t *testing.T) {
	tr := MustNew([]Segment{
		{Duration: time.Second, Rate: units.Mbps},
		{Duration: time.Second, Rate: 0},
	})
	// 1 Mb fits in the first second exactly.
	if _, ok := tr.DownloadTime(0, 125_000); !ok {
		t.Error("first-segment transfer should complete")
	}
	// One byte more can never complete: final segment is a dead link.
	if _, ok := tr.DownloadTime(0, 125_001); ok {
		t.Error("transfer through terminal outage should not complete")
	}
}

func TestDownloadTimeMidOutageRecovers(t *testing.T) {
	tr := MustNew([]Segment{
		{Duration: time.Second, Rate: 0},
		{Duration: 10 * time.Second, Rate: units.Mbps},
	})
	d, ok := tr.DownloadTime(0, 125_000)
	if !ok || d != 2*time.Second {
		t.Errorf("download through outage = %v, %v; want 2s", d, ok)
	}
}

func TestStep(t *testing.T) {
	tr := Step(5*units.Mbps, 350*units.Kbps, 25*time.Second, 300*time.Second)
	if got := tr.RateAt(10 * time.Second); got != 5*units.Mbps {
		t.Errorf("before step: %v", got)
	}
	if got := tr.RateAt(30 * time.Second); got != 350*units.Kbps {
		t.Errorf("after step: %v", got)
	}
	if tr.Total() != 300*time.Second {
		t.Errorf("total = %v", tr.Total())
	}
	// Degenerate step positions.
	if got := Step(units.Mbps, 2*units.Mbps, 0, time.Minute).RateAt(0); got != 2*units.Mbps {
		t.Errorf("step at 0: %v", got)
	}
	if got := Step(units.Mbps, 2*units.Mbps, time.Hour, time.Minute).RateAt(0); got != units.Mbps {
		t.Errorf("step beyond end: %v", got)
	}
}

func TestMarkovVariabilityCalibration(t *testing.T) {
	// Sigma chosen for a 75/25 ratio of 5.6 must produce a sampled ratio in
	// that ballpark (wide tolerance: finite sample).
	sigma := SigmaForQuartileRatio(5.6)
	rng := rand.New(rand.NewSource(42))
	tr := Markov(MarkovConfig{
		Base:     4 * units.Mbps,
		Sigma:    sigma,
		Duration: 4 * time.Hour,
	}, rng)
	ratio, err := stats.QuartileRatio(tr.Rates(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 3.0 || ratio > 10.0 {
		t.Errorf("quartile ratio = %v, want within [3, 10] around 5.6", ratio)
	}
}

func TestMarkovStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Markov(MarkovConfig{Base: 4 * units.Mbps, Sigma: 0, Duration: time.Hour}, rng)
	ratio, err := stats.QuartileRatio(tr.Rates(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Errorf("sigma=0 ratio = %v, want 1", ratio)
	}
}

func TestMarkovDeterministic(t *testing.T) {
	a := Markov(MarkovConfig{Base: 4 * units.Mbps, Sigma: 1, Duration: time.Hour}, rand.New(rand.NewSource(9)))
	b := Markov(MarkovConfig{Base: 4 * units.Mbps, Sigma: 1, Duration: time.Hour}, rand.New(rand.NewSource(9)))
	sa, sb := a.Segments(), b.Segments()
	if len(sa) != len(sb) {
		t.Fatalf("lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("segment %d differs: %v vs %v", i, sa[i], sb[i])
		}
	}
}

func TestMarkovDefaults(t *testing.T) {
	tr := Markov(MarkovConfig{}, rand.New(rand.NewSource(2)))
	if tr.Total() != time.Hour {
		t.Errorf("default duration = %v, want 1h", tr.Total())
	}
	for _, s := range tr.Segments() {
		if s.Rate < 64*units.Kbps {
			t.Errorf("rate %v below default floor", s.Rate)
		}
	}
}

// TestReadCSVErrors holds ReadCSV to naming the line of every row it
// refuses, and to reading fractional seconds, outages, blanks and comments.
func TestReadCSVErrors(t *testing.T) {
	for _, c := range []struct {
		in   string
		line int
		why  string
	}{
		{in: "1.0", line: 1, why: "want 2 fields"},
		{in: "1.0,2,3", line: 1, why: "want 2 fields"},
		{in: "abc,1000", line: 1, why: "bad duration"},
		{in: "1.0,notanumber", line: 1, why: "bad rate"},
		{in: "1,1000\n# NaN next\nNaN,1000", line: 3, why: "duration NaN s is not a positive finite number"},
		{in: "\n\nInf,1000", line: 3, why: "duration +Inf s is not a positive finite number"},
		{in: "1,1000\n-Inf,1000", line: 2, why: "duration -Inf s is not a positive finite number"},
		{in: "# zero\n0,1000", line: 2, why: "duration 0 s is not a positive finite number"},
		{in: "1,1000\n\n1e-12,1000", line: 3, why: "segment 1 has non-positive duration 0s"},
		{in: "# a comment\n1,-5", line: 2, why: "segment 0 has negative rate"},
		{in: "1,1000\n# a comment\n1,2000000000000", line: 3, why: "segment 1 has rate 2000Gb/s, above the"},
	} {
		_, err := ReadCSV(strings.NewReader(c.in))
		if want := fmt.Sprintf("trace: line %d: %s", c.line, c.why); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("ReadCSV(%q) error %v, want %q…", c.in, err, want)
		}
	}
	for _, in := range []string{"", "# only comments\n\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); err != ErrEmpty {
			t.Errorf("ReadCSV(%q) error %v, want ErrEmpty", in, err)
		}
	}
	tr, err := ReadCSV(strings.NewReader("# header\n\n1.5,5000000\n30,0\n 60 , 235000 \n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{Duration: 1500 * time.Millisecond, Rate: 5 * units.Mbps}, {Duration: 30 * time.Second, Rate: 0}, {Duration: time.Minute, Rate: 235 * units.Kbps}}
	if got := tr.Segments(); !reflect.DeepEqual(got, want) {
		t.Errorf("Segments() = %v, want %v", got, want)
	}
}

// Property: DownloadTime and BytesBetween are consistent — the bytes
// deliverable in the returned window equal (within rounding) the requested
// transfer size.
func TestQuickDownloadConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, kb uint16, startMs uint16) bool {
		tr := Markov(MarkovConfig{
			Base:     3 * units.Mbps,
			Sigma:    1.0,
			Duration: 2 * time.Minute,
		}, rand.New(rand.NewSource(seed)))
		n := int64(kb%4000+1) * 1000
		start := time.Duration(startMs) * time.Millisecond
		d, ok := tr.DownloadTime(start, n)
		if !ok {
			return false // Markov floor guarantees completion
		}
		got := tr.BytesBetween(start, start+d)
		diff := got - n
		if diff < 0 {
			diff = -diff
		}
		// Rounding slack: one rate transition of up to 100 Mb/s over the
		// nanosecond quantization plus integer byte truncations.
		return diff <= 64
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: BytesBetween is additive over adjacent intervals.
func TestQuickBytesAdditive(t *testing.T) {
	f := func(seed int64, aMs, bMs, cMs uint16) bool {
		tr := Markov(MarkovConfig{
			Base:     2 * units.Mbps,
			Sigma:    1.2,
			Duration: time.Minute,
		}, rand.New(rand.NewSource(seed)))
		ts := []time.Duration{
			time.Duration(aMs) * time.Millisecond,
			time.Duration(bMs) * time.Millisecond,
			time.Duration(cMs) * time.Millisecond,
		}
		if ts[0] > ts[1] {
			ts[0], ts[1] = ts[1], ts[0]
		}
		if ts[1] > ts[2] {
			ts[1], ts[2] = ts[2], ts[1]
		}
		if ts[0] > ts[1] {
			ts[0], ts[1] = ts[1], ts[0]
		}
		whole := tr.BytesBetween(ts[0], ts[2])
		split := tr.BytesBetween(ts[0], ts[1]) + tr.BytesBetween(ts[1], ts[2])
		diff := whole - split
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // integer truncation at the split point
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
