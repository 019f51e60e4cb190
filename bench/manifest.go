package main

import (
	"encoding/json"
)

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables in this package, so the
// file the driver reads and the metrics the benchmark prints cannot drift
// apart; a test holds the committed file against it.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh", "run"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, r := range roles {
		m.EndToEnd = append(m.EndToEnd, e2e{r.Name, r.Unit, "lower", r.Bound})
	}
	for _, l := range layerDefs {
		m.PerLayer = append(m.PerLayer, layer{l.Name, l.Unit, better(l.Higher)})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}
