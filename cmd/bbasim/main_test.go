package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bba/internal/telemetry"
	"bba/internal/units"
)

func TestRunScenarios(t *testing.T) {
	for _, scenario := range []string{"constant", "step", "variable", "outage"} {
		var out bytes.Buffer
		if err := run(&out, "BBA-2", 4000, scenario, 5.6, 3*time.Minute, 300, 1, 0, "", "", "", false); err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		text := out.String()
		if !strings.Contains(text, "session summary") {
			t.Errorf("%s: no summary printed", scenario)
		}
		if !strings.Contains(text, "rebuffers") {
			t.Errorf("%s: no metrics printed", scenario)
		}
	}
}

func TestRunCustomLadder(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "BBA-2", 4000, "constant", 3, 2*time.Minute, 200, 1, 0, "", "", "235,1050,3000", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "session summary") {
		t.Error("no summary with custom ladder")
	}
	if err := run(&out, "BBA-2", 4000, "constant", 3, time.Minute, 100, 1, 0, "", "", "3000,235", false); err == nil {
		t.Error("descending ladder accepted")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "NOPE", 4000, "constant", 3, time.Minute, 100, 1, 0, "", "", "", false); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(&out, "BBA-0", 4000, "wormhole", 3, time.Minute, 100, 1, 0, "", "", "", false); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run(&out, "BBA-0", 4000, "constant", 3, time.Minute, 100, 1, 0, "/nonexistent.csv", "", "", false); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestRunTraceFileAndChunkCSV(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(traceFile, []byte("60.0,4000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	chunkFile := filepath.Join(dir, "chunks.csv")
	var out bytes.Buffer
	if err := run(&out, "BBA-1", 0, "", 0, 2*time.Minute, 200, 1, 560, traceFile, chunkFile, "", true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(chunkFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "start_s,index,") {
		t.Error("chunk CSV malformed")
	}
}

// TestGoldenStepSession pins the timeline and the chunk CSV, byte for byte,
// of bbasim -alg BBA-1 -scenario step|outage -watch 5m -v -chunks-csv: both
// are read off the session's chunk_complete events.
func TestGoldenStepSession(t *testing.T) {
	for _, scenario := range []string{"step", "outage"} {
		csvPath := filepath.Join(t.TempDir(), "chunks.csv")
		var out bytes.Buffer
		if err := run(&out, "BBA-1", 4000, scenario, 5.6, 5*time.Minute, 1800, 1, 0, "", csvPath, "", true); err != nil {
			t.Fatal(err)
		}
		gotCSV, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []struct {
			file string
			got  []byte
		}{
			{"bba1-" + scenario + "-5m-v.txt", out.Bytes()},
			{"bba1-" + scenario + "-5m-v.csv", gotCSV},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.got, want) {
				t.Errorf("output differs from testdata/%s:\n%s", g.file, g.got)
			}
		}
	}
}

func TestWriteChunkCSV(t *testing.T) {
	chunks := []telemetry.Event{
		{Kind: telemetry.ChunkComplete, At: 1500 * time.Millisecond, Chunk: 0, Rate: 235 * units.Kbps,
			Bytes: 117500, Duration: 1500 * time.Millisecond, Throughput: 626667, Buffer: 4 * time.Second},
		{Kind: telemetry.ChunkComplete, At: 2 * time.Second, Chunk: 1, Rate: 750 * units.Kbps,
			Bytes: 375000, Duration: 500 * time.Millisecond, Throughput: 6 * units.Mbps, Buffer: 7500 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := writeChunkCSV(&buf, chunks); err != nil {
		t.Fatal(err)
	}
	want := "start_s,index,rate_kbps,bytes,download_s,throughput_kbps,buffer_s\n" +
		"0.000,0,235,117500,1.500,627,4.000\n" +
		"1.500,1,750,375000,0.500,6000,7.500\n"
	if buf.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}
