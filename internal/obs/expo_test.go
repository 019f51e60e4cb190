package obs_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bba/internal/obs"
)

// family is one parsed metric family.
type family struct {
	name, typ, help string
	samples         []sample
}

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition is a strict reader of the text exposition format 0.0.4,
// strict in the sense that it accepts only what a well-behaved encoder
// emits: every family opens with one HELP line and then one TYPE line,
// each family appears once, every sample belongs to the family open above
// it under a name its type allows, label values and HELP text use only the
// escapes the format defines, and histograms are ascending, cumulative and
// closed by le="+Inf" equal to _count. The first violation is returned as
// an error naming its line.
func parseExposition(text string) ([]family, error) {
	if text != "" && !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("last line is not newline-terminated")
	}
	var fams []family
	seen := map[string]bool{}
	var cur *family
	closeFamily := func() error {
		if cur == nil {
			return nil
		}
		if cur.typ == "" {
			return fmt.Errorf("family %s: HELP without TYPE", cur.name)
		}
		if cur.typ == "histogram" {
			if err := checkHistogram(cur); err != nil {
				return err
			}
		}
		fams = append(fams, *cur)
		cur = nil
		return nil
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if text == "" {
		lines = nil
	}
	for i, line := range lines {
		fail := func(format string, args ...any) ([]family, error) {
			return nil, fmt.Errorf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case line == "":
			return fail("empty line")
		case strings.HasPrefix(line, "# HELP "):
			if err := closeFamily(); err != nil {
				return fail("%v", err)
			}
			name, help, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok || !metricName.MatchString(name) {
				return fail("malformed HELP")
			}
			if seen[name] {
				return fail("duplicate family %s", name)
			}
			seen[name] = true
			text, err := unescape(help, false)
			if err != nil {
				return fail("HELP text: %v", err)
			}
			cur = &family{name: name, help: text}
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if !ok || cur == nil || cur.name != name {
				return fail("TYPE does not follow its family's HELP")
			}
			if cur.typ != "" || len(cur.samples) > 0 {
				return fail("second TYPE, or TYPE after samples")
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				return fail("unknown type %q", typ)
			}
			cur.typ = typ
		case strings.HasPrefix(line, "#"):
			return fail("comment that is neither HELP nor TYPE")
		default:
			if cur == nil || cur.typ == "" {
				return fail("sample before its family's HELP and TYPE")
			}
			s, err := parseSample(line)
			if err != nil {
				return fail("%v", err)
			}
			if err := checkSampleName(cur, s); err != nil {
				return fail("%v", err)
			}
			if cur.typ == "counter" && !(s.value >= 0) {
				return fail("counter sample %v is negative or NaN", s.value)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	if err := closeFamily(); err != nil {
		return nil, err
	}
	return fams, nil
}

// parseSample reads `name{label="value",...} value`.
func parseSample(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return s, fmt.Errorf("no value")
	}
	s.name, rest = rest[:end], rest[end:]
	if !metricName.MatchString(s.name) {
		return s, fmt.Errorf("bad metric name %q", s.name)
	}
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("label without =\"")
			}
			name := rest[:eq]
			if !labelName.MatchString(name) {
				return s, fmt.Errorf("bad label name %q", name)
			}
			if _, dup := s.labels[name]; dup {
				return s, fmt.Errorf("duplicate label %q", name)
			}
			rest = rest[eq+2:]
			// The value runs to the first quote not preceded by an odd
			// run of backslashes.
			closeAt := -1
			for j := 0; j < len(rest); j++ {
				if rest[j] == '\\' {
					j++
					continue
				}
				if rest[j] == '"' {
					closeAt = j
					break
				}
			}
			if closeAt < 0 {
				return s, fmt.Errorf("unterminated label value")
			}
			val, err := unescape(rest[:closeAt], true)
			if err != nil {
				return s, fmt.Errorf("label %s: %v", name, err)
			}
			s.labels[name] = val
			rest = rest[closeAt+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return s, fmt.Errorf("label set not closed")
		}
	}
	if !strings.HasPrefix(rest, " ") || strings.Contains(rest[1:], " ") {
		return s, fmt.Errorf("want exactly one space and one value after the name")
	}
	v, err := strconv.ParseFloat(rest[1:], 64)
	if err != nil {
		return s, fmt.Errorf("value: %v", err)
	}
	s.value = v
	return s, nil
}

// unescape reverses the format's escapes and rejects every other
// backslash sequence — in particular the \t, \x.. and \u.... forms Go's
// %q would produce.
func unescape(s string, label bool) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i == len(s) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch {
		case s[i] == '\\':
			b.WriteByte('\\')
		case s[i] == 'n':
			b.WriteByte('\n')
		case s[i] == '"' && label:
			b.WriteByte('"')
		default:
			return "", fmt.Errorf(`escape \%c is not in the format`, s[i])
		}
	}
	return b.String(), nil
}

func checkSampleName(f *family, s sample) error {
	suffix, ok := strings.CutPrefix(s.name, f.name)
	if !ok {
		return fmt.Errorf("sample %s inside family %s", s.name, f.name)
	}
	_, hasLE := s.labels["le"]
	switch f.typ {
	case "histogram":
		if suffix != "_bucket" && suffix != "_sum" && suffix != "_count" {
			return fmt.Errorf("histogram %s has sample %s", f.name, s.name)
		}
		if (suffix == "_bucket") != hasLE {
			return fmt.Errorf("le label on %s: present=%v", s.name, hasLE)
		}
	default:
		if suffix != "" {
			return fmt.Errorf("%s %s has sample %s", f.typ, f.name, s.name)
		}
	}
	return nil
}

// checkHistogram requires buckets in ascending le order with cumulative
// counts, closed by +Inf, then _sum, then _count equal to the +Inf bucket.
func checkHistogram(f *family) error {
	n := len(f.samples)
	if n < 3 {
		return fmt.Errorf("histogram %s has %d samples", f.name, n)
	}
	buckets, sum, count := f.samples[:n-2], f.samples[n-2], f.samples[n-1]
	if sum.name != f.name+"_sum" || count.name != f.name+"_count" {
		return fmt.Errorf("histogram %s does not end _sum, _count", f.name)
	}
	prevLE, prevCum := math.Inf(-1), 0.0
	for _, b := range buckets {
		if b.name != f.name+"_bucket" {
			return fmt.Errorf("histogram %s: %s among the buckets", f.name, b.name)
		}
		le, err := strconv.ParseFloat(b.labels["le"], 64)
		if err != nil {
			return fmt.Errorf("histogram %s: le=%q", f.name, b.labels["le"])
		}
		if le <= prevLE {
			return fmt.Errorf("histogram %s: le %v after %v", f.name, le, prevLE)
		}
		if b.value < prevCum {
			return fmt.Errorf("histogram %s: bucket le=%v count %v below the previous %v", f.name, le, b.value, prevCum)
		}
		prevLE, prevCum = le, b.value
	}
	if last := buckets[len(buckets)-1]; last.labels["le"] != "+Inf" {
		return fmt.Errorf("histogram %s: last bucket le=%q, want +Inf", f.name, last.labels["le"])
	}
	if prevCum != count.value {
		return fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", f.name, prevCum, count.value)
	}
	return nil
}

// TestParserRejects pins the grammar the conformance table leans on: each
// input breaks exactly one rule and must be refused.
func TestParserRejects(t *testing.T) {
	good := "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n"
	if _, err := parseExposition(good); err != nil {
		t.Fatalf("well-formed input refused: %v", err)
	}
	for name, text := range map[string]string{
		"no trailing newline":   "# HELP a A.\n# TYPE a gauge\na 1",
		"TYPE before HELP":      "# TYPE a gauge\n# HELP a A.\na 1\n",
		"HELP without TYPE":     "# HELP a A.\na 1\n",
		"sample before family":  "a 1\n",
		"duplicate family":      good + good,
		"second TYPE":           "# HELP a A.\n# TYPE a gauge\n# TYPE a gauge\na 1\n",
		"TYPE after sample":     "# HELP a A.\n# TYPE a gauge\na 1\n# TYPE a gauge\n",
		"foreign sample":        "# HELP a A.\n# TYPE a gauge\nb 1\n",
		"suffix on a counter":   "# HELP a A.\n# TYPE a counter\na_count 1\n",
		"negative counter":      "# HELP a A.\n# TYPE a counter\na -1\n",
		"unknown type":          "# HELP a A.\n# TYPE a summary\na 1\n",
		"bad value":             "# HELP a A.\n# TYPE a gauge\na one\n",
		"two values":            "# HELP a A.\n# TYPE a gauge\na 1 2\n",
		"empty line":            "# HELP a A.\n# TYPE a gauge\n\na 1\n",
		"go-quoted tab":         "# HELP a A.\n# TYPE a counter\na{k=\"x\\ty\"} 1\n",
		"go-quoted unicode":     "# HELP a A.\n# TYPE a counter\na{k=\"\\u00e9\"} 1\n",
		"quote escape in HELP":  "# HELP a say \\\"hi\\\"\n# TYPE a gauge\na 1\n",
		"unterminated label":    "# HELP a A.\n# TYPE a counter\na{k=\"x} 1\n",
		"buckets descending":    "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"buckets not cumulate":  "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"no +Inf bucket":        "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"+Inf differs from cnt": "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"bucket without le":     "# HELP h H.\n# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
	} {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}

// TestWriter checks the encoder against the parser, on the inputs where an
// encoder goes wrong: values that need escaping, an empty family, bucket
// accumulation, and the float spellings.
func TestWriter(t *testing.T) {
	var w obs.Writer
	w.Counter("a_total", "Back\\slash and\nnewline, \"quotes\" stay.", 3)
	w.Gauge("b", "A gauge.", -0.25)
	w.CounterVec("c_total", "By kind.", "kind", map[string]int64{
		"plain": 1, "q\"uote": 2, "back\\slash": 3, "new\nline": 4, "tab\there": 5, "é": 6,
	})
	w.CounterVec("d_total", "Empty family.", "kind", nil)
	// One observation at or under 0.5, none in (0.5, 1], two in (1, 2.5] —
	// one on the bound, which its bucket holds — and three past it.
	h := obs.NewHistogram(0.5, 1, 2.5)
	for _, v := range []float64{0.25, 2, 2.5, 2.625, 2.625, 2.75} {
		h.Observe(v)
	}
	w.Histogram("h_seconds", "A histogram.", &h)
	w.Gauge("big", "Large and non-finite values.", 12345678)
	w.Gauge("inf", "Infinity.", math.Inf(1))

	text := string(w.Bytes())
	fams, err := parseExposition(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	byName := map[string]family{}
	for _, f := range fams {
		byName[f.name] = f
	}
	if got := byName["a_total"].help; got != "Back\\slash and\nnewline, \"quotes\" stay." {
		t.Errorf("HELP round trip: %q", got)
	}
	if strings.Contains(text, `\"quotes\"`) {
		t.Errorf("HELP text escapes double quotes, which the format does not:\n%s", text)
	}
	c := byName["c_total"]
	if len(c.samples) != 6 {
		t.Fatalf("c_total has %d samples, want 6", len(c.samples))
	}
	want := map[string]float64{"plain": 1, "q\"uote": 2, "back\\slash": 3, "new\nline": 4, "tab\there": 5, "é": 6}
	var order []string
	for _, s := range c.samples {
		k := s.labels["kind"]
		order = append(order, k)
		if s.value != want[k] {
			t.Errorf("c_total{kind=%q} = %v, want %v", k, s.value, want[k])
		}
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("label values not in sorted order: %q", order)
	}
	if f := byName["d_total"]; f.typ != "counter" || len(f.samples) != 0 {
		t.Errorf("empty family: %+v", f)
	}
	hf := byName["h_seconds"]
	var cum []float64
	for _, s := range hf.samples {
		cum = append(cum, s.value)
	}
	if fmt.Sprint(cum) != "[1 1 3 6 12.75 6]" {
		t.Errorf("histogram samples %v, want buckets 1 1 3 6, sum 12.75, count 6", cum)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.75) }); n != 0 {
		t.Errorf("Observe allocates %v times a call, want none: it is on every event path", n)
	}
	for _, line := range []string{
		"b -0.25\n", "big 1.2345678e+07\n", "inf +Inf\n", `h_seconds_bucket{le="0.5"} 1` + "\n", `h_seconds_bucket{le="+Inf"} 6` + "\n",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("missing %q in\n%s", line, text)
		}
	}
}

func TestHandler(t *testing.T) {
	h := obs.Handler(func(w *obs.Writer) { w.Counter("x_total", "X.", 1) })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, nil)
	if got := rec.Header().Get("Content-Type"); got != obs.ContentType {
		t.Errorf("Content-Type %q, want %q", got, obs.ContentType)
	}
	if rec.Code != http.StatusOK || rec.Body.String() != "# HELP x_total X.\n# TYPE x_total counter\nx_total 1\n" {
		t.Errorf("%d %q", rec.Code, rec.Body.String())
	}
}
