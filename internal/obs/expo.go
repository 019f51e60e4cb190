// Package obs owns the two decisions every daemon in this repository
// shares: how counters leave the process (the Prometheus text exposition
// format, in this file) and how an HTTP listener is bound, served and
// drained (serve.go), plus the two helpers the mains repeat (main.go).
//
// The exposition half is a writer, not a registry: each source — the
// mutex-guarded fields of telemetry.Prom and soak.Metrics, the Stats()
// snapshots of collect.Collector and coord.Coordinator — already holds
// its numbers, and calls the Writer with them at scrape time. A registry
// would keep a second copy of every counter and put new synchronisation
// on the event hot paths. The container bakes no Prometheus client
// library, so the format is encoded here, once.
package obs

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the media type of the text exposition format 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer encodes metric families into an in-memory buffer: one HELP and
// one TYPE line per family, then its samples. Families appear in call
// order; the caller writes each family exactly once. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the exposition text written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Counter writes a single-sample counter family.
func (w *Writer) Counter(name, help string, v float64) {
	w.header(name, help, "counter")
	w.sample(name, "", "", "", v)
}

// Gauge writes a single-sample gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.header(name, help, "gauge")
	w.sample(name, "", "", "", v)
}

// CounterVec writes a counter family with one sample per entry of vals,
// distinguished by label and ordered by label value. An empty map writes
// the family's header alone.
func (w *Writer) CounterVec(name, help, label string, vals map[string]int64) {
	w.header(name, help, "counter")
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.sample(name, "", label, k, float64(vals[k]))
	}
}

// Histogram is a fixed-bucket histogram's state, which Writer.Histogram
// encodes: ascending finite upper bounds, per-bucket (not cumulative)
// counts with a final overflow bucket, and the sum of every observation.
// It is not safe for concurrent use; its owner guards it with the lock its
// other metrics share.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
}

// NewHistogram returns an empty histogram over bounds, which must ascend.
func NewHistogram(bounds ...float64) Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must ascend")
	}
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe counts v in the first bucket whose bound is at least v. It does
// not allocate.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
}

// Histogram writes h as a histogram family.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	w.header(name, help, "histogram")
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i]
		w.sample(name, "_bucket", "le", formatFloat(ub), float64(cum))
	}
	cum += h.counts[len(h.bounds)]
	w.sample(name, "_bucket", "le", "+Inf", float64(cum))
	w.sample(name, "_sum", "", "", h.sum)
	w.sample(name, "_count", "", "", float64(cum))
}

func (w *Writer) header(name, help, typ string) {
	w.buf = append(w.buf, "# HELP "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, helpEscaper.Replace(help)...)
	w.buf = append(w.buf, "\n# TYPE "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, typ...)
	w.buf = append(w.buf, '\n')
}

func (w *Writer) sample(name, suffix, label, value string, v float64) {
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, suffix...)
	if label != "" {
		w.buf = append(w.buf, '{')
		w.buf = append(w.buf, label...)
		w.buf = append(w.buf, `="`...)
		w.buf = append(w.buf, labelEscaper.Replace(value)...)
		w.buf = append(w.buf, `"}`...)
	}
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, formatFloat(v)...)
	w.buf = append(w.buf, '\n')
}

// The format defines exactly these escapes: backslash and newline in HELP
// text, and additionally the double quote in label values.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// formatFloat is the one sample-value formatter: the shortest decimal
// that round-trips, with the format's spellings of the non-finite values.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler adapts a function that writes a source's families into the
// /metrics endpoint: the source is asked for its current state on every
// scrape and the result is served with the format's Content-Type.
func Handler(write func(*Writer)) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		var w Writer
		write(&w)
		rw.Header().Set("Content-Type", ContentType)
		rw.Write(w.buf)
	})
}
