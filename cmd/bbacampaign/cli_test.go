package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"

	"bba/internal/doccmd"
	"bba/internal/obs"
)

// TestValidateFlags pins which flags each subcommand takes, from argv: one
// table per subcommand of an accepted line and every foreign-mode flag. A
// foreign flag is refused by that subcommand's parser ("flag provided but
// not defined", a usage error) — there is no hand-kept rejection matrix
// left to test. The few combinations a parser cannot express are single
// checks in the subcommand and carry "want". The retired merge subcommand
// keeps a table: whatever follows it, the line is refused before any flag
// set exists.
func TestValidateFlags(t *testing.T) {
	const coordURL, shipURL = "http://127.0.0.1:1", "http://127.0.0.1:1"
	type row struct {
		name string
		args []string
		want string // "": accepted (the line runs); "usage": the parser refuses; "unknown": no such subcommand; else the run's error
	}
	tables := map[string][]row{
		"run": {
			{"plain run", tiny("run", 8), ""},
			{"coord without worker", tiny("run", 8, "-coord", coordURL), "usage"},
			{"run with worker-name", tiny("run", 8, "-worker-name", "w"), "usage"},
			{"run with json", tiny("run", 8, "-json"), "usage"},
			{"run with list", tiny("run", 8, "-list"), "usage"},
			{"run with scale", tiny("run", 8, "-scale", "full"), "usage"},
			{"run with merge", tiny("run", 8, "-merge", "cp.json"), "usage"},
			{"run with worker", tiny("run", 8, "-worker"), "usage"},
			{"run with positional", tiny("run", 8, "cp.json"), "usage"},
			// Stripes are gone, and -ship and -run-id with them from every
			// subcommand: shards reach another process through a coordinator.
			{"run with shards", tiny("run", 8, "-shards", "2"), "usage"},
			{"run with ship", tiny("run", 8, "-ship", shipURL), "usage"},
			{"run with run-id", tiny("run", 8, "-run-id", "fleet-1"), "usage"},
		},
		"weekend": {
			{"weekend ok", []string{"weekend", "-progress-every", "0", "-days", "1", "-shard-size", "2", "-sessions", "24"}, ""},
			{"weekend with checkpoint", []string{"weekend", "-checkpoint", "cp.json"}, "usage"},
			{"weekend with shards", []string{"weekend", "-shards", "2"}, "usage"},
			{"weekend with report", []string{"weekend", "-report", "r.csv"}, "usage"},
			{"weekend with ship", []string{"weekend", "-ship", shipURL}, "usage"},
			{"weekend with coord", []string{"weekend", "-coord", coordURL}, "usage"},
			{"weekend with json", []string{"weekend", "-json"}, "usage"},
			{"weekend with unknown scale", []string{"weekend", "-scale", "enormous"}, "usage"},
		},
		"arena": {
			{"arena ok", tinyArena("-json"), ""},
			{"arena with checkpoint", tinyArena("-checkpoint", "cp.json"), "usage"},
			{"arena with shards", tinyArena("-shards", "2"), "usage"},
			{"arena with ship", tinyArena("-ship", shipURL), "usage"},
			{"arena with coord", tinyArena("-coord", coordURL), "usage"},
			{"arena with scale", tinyArena("-scale", "full"), "usage"},
		},
		"merge": {
			{"merge with ship", []string{"merge", "-ship", shipURL, "cp.json"}, "unknown"},
			{"merge with sessions", []string{"merge", "-sessions", "8", "cp.json"}, "unknown"},
			{"merge with workers", []string{"merge", "-workers", "2", "cp.json"}, "unknown"},
			{"merge with checkpoint", []string{"merge", "-checkpoint", "cp.json"}, "unknown"},
			{"merge with coord", []string{"merge", "-coord", coordURL, "cp.json"}, "unknown"},
			{"merge without checkpoints", []string{"merge"}, "unknown"},
		},
		"worker": {
			// "worker ok" parses and passes the subcommand's checks; nothing
			// listens at the URL, so what it then reports is the join failing.
			{"worker ok", []string{"worker", "-coord", coordURL}, "/join"},
			{"worker ship with run-id", []string{"worker", "-coord", coordURL, "-run-id", "fleet-1"}, "usage"},
			{"worker without coord", []string{"worker"}, "requires -coord"},
			{"worker ship without run-id", []string{"worker", "-coord", coordURL, "-ship", shipURL}, "usage"},
			{"worker with merge", []string{"worker", "-coord", coordURL, "-merge", "cp.json"}, "usage"},
			{"worker with checkpoint", []string{"worker", "-coord", coordURL, "-checkpoint", "cp.json"}, "usage"},
			{"worker with stripes", []string{"worker", "-coord", coordURL, "-shards", "2"}, "usage"},
			{"worker with report", []string{"worker", "-coord", coordURL, "-report", "r.json"}, "usage"},
			{"worker with sessions", []string{"worker", "-coord", coordURL, "-sessions", "8"}, "usage"},
			{"worker with algos", []string{"worker", "-coord", coordURL, "-algos", "BBA-2"}, "usage"},
			{"everything wrong at once", []string{"worker", "-merge", "cp.json", "-checkpoint", "cp.json", "-shards", "2", "-report", "r.json", "-ship", shipURL}, "usage"},
		},
	}
	for sub, rows := range tables {
		for _, tc := range rows {
			t.Run(tc.name, func(t *testing.T) {
				if tc.args[0] != sub {
					t.Fatalf("row is in %s's table but runs %q", sub, tc.args[0])
				}
				var out, errw bytes.Buffer
				ctx, cancel := context.WithCancel(context.Background())
				if tc.want == "/join" {
					cancel() // do not sit out the join retries
				}
				defer cancel()
				err := cli(ctx, tc.args, &out, &errw)
				switch tc.want {
				case "":
					if err != nil {
						t.Fatalf("accepted line failed: %v\nstderr: %s", err, errw.String())
					}
				case "usage":
					if !errors.Is(err, obs.ErrUsage) {
						t.Fatalf("err = %v, want a usage error from the parser", err)
					}
					if !strings.Contains(errw.String(), "Usage of bbacampaign "+sub) {
						t.Errorf("parser did not print %s's usage: %q", sub, errw.String())
					}
					if out.Len() != 0 {
						t.Errorf("refused line wrote to stdout: %q", out.String())
					}
				case "unknown":
					if !errors.Is(err, obs.ErrUsage) {
						t.Fatalf("err = %v, want a usage error", err)
					}
					if want := "unknown subcommand " + strconv.Quote(sub); !strings.Contains(errw.String(), want) {
						t.Errorf("stderr lacks %q: %q", want, errw.String())
					}
				case "/join":
					if err == nil || errors.Is(err, obs.ErrUsage) {
						t.Fatalf("err = %v, want the join to fail (the line itself is valid)", err)
					}
				default:
					if err == nil || errors.Is(err, obs.ErrUsage) || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("err = %v, want one naming %q", err, tc.want)
					}
				}
			})
		}
	}
}

// TestNoSubcommand: without a subcommand, or with an unknown one, the
// command lists its subcommands on stderr and reports a usage error — exit
// 2 under obs.Main; -h is not an error.
func TestNoSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"nope"}, {"-sessions", "8"}} {
		var out, errw bytes.Buffer
		err := cli(context.Background(), args, &out, &errw)
		if !errors.Is(err, obs.ErrUsage) {
			t.Errorf("bbacampaign %v = %v, want a usage error", args, err)
		}
		for _, sc := range subcommands {
			if !strings.Contains(errw.String(), "\n  "+sc.name) {
				t.Errorf("bbacampaign %v: subcommand list lacks %q:\n%s", args, sc.name, errw.String())
			}
		}
		if out.Len() != 0 {
			t.Errorf("bbacampaign %v wrote to stdout: %q", args, out.String())
		}
	}
	var out, errw bytes.Buffer
	if err := cli(context.Background(), []string{"run", "-h"}, &out, &errw); err != nil {
		t.Errorf("run -h = %v, want nil", err)
	}
	if !strings.Contains(errw.String(), "-shard-size") {
		t.Errorf("run -h did not print the flags: %q", errw.String())
	}
}

// TestDocCommandLines: every `bbacampaign …` command line quoted in README,
// DESIGN, EXPERIMENTS, the verify skill and the commands' own package
// comments names a real subcommand and parses against its real flag set, so
// a doc cannot quote a deleted flag (parse only; nothing runs).
func TestDocCommandLines(t *testing.T) {
	lines := doccmd.Lines(t, "../..", "bbacampaign")
	if len(lines) < 10 {
		t.Fatalf("only %d bbacampaign command lines found in the docs; the extractor is broken", len(lines))
	}
lines:
	for _, l := range lines {
		if len(l.Args) == 0 {
			continue // the bare name
		}
		for _, sc := range subcommands {
			if sc.name != l.Args[0] {
				continue
			}
			fs := flag.NewFlagSet(sc.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			sc.build(fs, new(execFlags))
			if done, err := obs.Parse(fs, l.Args[1:]); done {
				t.Errorf("%s: `bbacampaign %s`: %v", l.Where, strings.Join(l.Args, " "), err)
			}
			continue lines
		}
		t.Errorf("%s: `bbacampaign %s`: no such subcommand", l.Where, strings.Join(l.Args, " "))
	}
}
