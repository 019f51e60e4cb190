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

// TestArenaGolden pins the arena's table to sha256s taken from the parent
// commit's `bbarena` and `bbarena -faults` (default field, 2000 draws) —
// unchanged since, at any worker count, because it prints only each
// delta's mean and 95% CI — and `arena -json` to the sha256s of the
// bba-arena-report/v2 form, which dropped v1's unused delta quantiles.
func TestArenaGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"arena", "-progress-every", "0"}, "2e3c77e217e708f2f6706e71929ec8e0dc863d01fa71d98705637b0a19cc88fa"},
		{[]string{"arena", "-progress-every", "0", "-faults"}, "3c2bb352bb58f0256b10489eb44d71d63e2600b4ddc94f5a3a15fb3254d2ebbb"},
		{[]string{"arena", "-json", "-progress-every", "0"}, "9f34cca9631b2b9860dbb01a908ded740cea8cf3887580aab94dd267536f31a4"},
		{[]string{"arena", "-json", "-progress-every", "0", "-faults"}, "c33759ca7cc6e688ccd152a265460965575e3a2dde504f65bad71b13c6f17af5"},
	} {
		if got := sha(mustRun(t, tc.args)); got != tc.want {
			t.Errorf("%v: sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
}
