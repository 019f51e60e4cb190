package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bba/internal/abr"
	"bba/internal/arena"
)

// tinyArena is a three-entrant tournament under fault weather.
func tinyArena(extra ...string) []string {
	args := []string{"arena", "-algos", "BBA-2,BOLA,SmoothThroughput", "-sessions", "24", "-shard-size", "8", "-days", "1",
		"-seed", "7", "-fault-seed", "7", "-faults", "-sketch", "64", "-progress-every", "0"}
	return append(args, extra...)
}

func TestArenaTable(t *testing.T) {
	out := string(mustRun(t, tinyArena()))
	for _, want := range []string{"3 entrants", "BBA-2 vs BOLA", "head-to-head"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestArenaJSON also pins -report: arena writes through the same
// close-checked writeReport as run, and a path it cannot write is
// an error, not an exit 0.
func TestArenaJSON(t *testing.T) {
	want := mustRun(t, tinyArena("-json"))
	var r arena.Report
	if err := json.Unmarshal(want, &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != arena.ReportSchema || len(r.Matches) != 3 {
		t.Errorf("schema %q, %d matches", r.Schema, len(r.Matches))
	}

	path := filepath.Join(t.TempDir(), "arena.json")
	if out := mustRun(t, tinyArena("-json", "-report", path)); len(out) != 0 {
		t.Errorf("-report also wrote %d bytes to stdout", len(out))
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("-report file differs from stdout report (err %v)", err)
	}
	err := cli(context.Background(), tinyArena("-json", "-report", filepath.Join(path, "under-a-file")), new(bytes.Buffer), new(bytes.Buffer))
	if err == nil {
		t.Error("unwritable -report path exited 0")
	}
}

func TestArenaList(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(string(mustRun(t, []string{"arena", "-list"}))), "\n")
	names := abr.Names()
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d lines for %d registered algorithms", len(lines), len(names))
	}
	for i, name := range names {
		if lines[i] != name {
			t.Errorf("line %d = %q, want %q", i, lines[i], name)
		}
	}
}

// TestArenaEntrants pins how arena reads -algos: none means the default
// field, "all" the whole registry, otherwise the shared comma-split list
// (blanks and a trailing comma ignored), unknown names refused by name.
func TestArenaEntrants(t *testing.T) {
	entrants := func(algos ...string) []string {
		t.Helper()
		args := append([]string{"arena", "-json", "-sessions", "2", "-shard-size", "2", "-progress-every", "0"}, algos...)
		var r arena.Report
		if err := json.Unmarshal(mustRun(t, args), &r); err != nil {
			t.Fatal(err)
		}
		return r.Entrants
	}
	if got := entrants(); strings.Join(got, ",") != strings.Join(arena.DefaultField, ",") {
		t.Errorf("default field: %v", got)
	}
	if got := entrants("-algos", "all"); len(got) != len(abr.Names()) {
		t.Errorf("all: %v", got)
	}
	if got := entrants("-algos", " BBA-2 , BOLA ,"); len(got) != 2 || got[0] != "BBA-2" || got[1] != "BOLA" {
		t.Errorf("whitespace/trailing comma: %v", got)
	}
	err := cli(context.Background(), []string{"arena", "-algos", "BBA-2,nope"}, new(bytes.Buffer), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown entrant: %v", err)
	}
}

// TestArenaGolden pins `arena -json` to sha256s taken from the parent
// commit's `bbarena -json` and `bbarena -json -faults` (default field, 2000
// draws).
func TestArenaGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"arena", "-json", "-progress-every", "0"}, "dff3ab8b78e9a7206a68f4d4bd3c9a2251d5bca77544a160be5007407f237db0"},
		{[]string{"arena", "-json", "-progress-every", "0", "-faults"}, "bf6b1748bb86177afc65d91bc4c1f2b17c56afcce3a76a13fa8dfd55c8cc8f6e"},
	} {
		if got := sha(mustRun(t, tc.args)); got != tc.want {
			t.Errorf("%v: sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
}
