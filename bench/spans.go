package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the program. Parent is the index of the span that
// caused it (-1 for a root); spans of one request (a paired draw, a chunk
// GET, a frame) share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder is the in-memory span store of the traced run. It is owned by
// one goroutine; concurrent generators record into their own recorder and
// merge at the end. Counts are recorded at the same boundaries as spans so
// ratios are measured where the work happens. A nil recorder records
// nothing, which is how the untraced run shares the traced run's code.
type recorder struct {
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.counts[name] += n
}

// merge appends o's spans (re-basing parent indices and clocks) and counts.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	shift := int64(o.epoch.Sub(r.epoch))
	for _, s := range o.spans {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
	for k, v := range o.counts {
		r.counts[k] += v
	}
}

// layerTime is one span name's totals.
type layerTime struct {
	N     int64
	Total int64 // sum of durations, ns
	Self  int64 // sum of durations minus child-covered time, ns
}

// selfTimes folds spans by name. A span's self time is its duration minus
// the part of its interval that its direct children cover; children may
// overlap each other (concurrent parts) or stick out of the parent, so the
// covered part is the clipped union of their intervals, not their sum.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.N++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s.Start, s.End, children[i])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of iv.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	at := lo
	for _, c := range iv {
		from, to := c[0], c[1]
		if from < at {
			from = at
		}
		if to > hi {
			to = hi
		}
		if to > from {
			sum += to - from
			at = to
		}
	}
	return sum
}

// writeTrace writes every recorded span once, at the end of the traced run.
func writeTrace(path string, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{r.spans, r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
