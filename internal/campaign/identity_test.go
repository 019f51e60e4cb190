package campaign

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"bba/internal/abr"
)

// bindAndParse is a command line's path into an Identity.
func bindAndParse(t *testing.T, args ...string) Identity {
	t.Helper()
	id := FlagDefaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	id.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestIdentityRoundTrip: flags → Identity → JSON → Config().Identity() is a
// fixed point — the normal form a checkpoint stores and a coordinator ships
// is the same whichever of the three it was resolved from — and it is the
// identity the flags' own Config runs under.
func TestIdentityRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want Identity
	}{
		{"defaults", nil, Identity{Seed: 2014, Sessions: 10000, ShardSize: 1024, Days: 3, CatalogSize: 24, SketchSize: 512,
			Groups: []string{"Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others"}}},
		{"every flag", []string{"-algos", " BBA-2 , BOLA ,", "-sessions", "1500", "-shard-size", "256", "-days", "2", "-seed", "77",
			"-fault-seed", "9", "-faults", "-sketch", "64"},
			Identity{Seed: 77, FaultSeed: 9, Faults: true, Sessions: 1500, ShardSize: 256, Days: 2, CatalogSize: 24, SketchSize: 64,
				Groups: []string{"BBA-2", "BOLA"}}},
		// Without -faults the fault seed is not part of what ran.
		{"fault seed without faults", []string{"-fault-seed", "9", "-sessions", "8"},
			Identity{Seed: 2014, Sessions: 8, ShardSize: 1024, Days: 3, CatalogSize: 24, SketchSize: 512,
				Groups: []string{"Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			normal := func(id Identity) Identity {
				t.Helper()
				data, err := json.Marshal(id)
				if err != nil {
					t.Fatal(err)
				}
				var back Identity
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatal(err)
				}
				cfg, err := back.Config()
				if err != nil {
					t.Fatal(err)
				}
				return cfg.Identity()
			}
			got := normal(bindAndParse(t, tc.args...))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("normal form\n got %+v\nwant %+v", got, tc.want)
			}
			if again := normal(got); !reflect.DeepEqual(again, got) {
				t.Errorf("not a fixed point: %+v → %+v", got, again)
			}
		})
	}
}

// TestIdentityConfigErrors: what an identity cannot describe is a typed
// error before anything runs.
func TestIdentityConfigErrors(t *testing.T) {
	if _, err := (Identity{Sessions: 8, Groups: []string{"BBA-2", "nope"}}).Config(); !errors.Is(err, abr.ErrUnknownAlgorithm) || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unregistered arm: %v, want abr.ErrUnknownAlgorithm naming it", err)
	}
	for _, sessions := range []int{0, -5} {
		if _, err := (Identity{Sessions: sessions, ShardSize: 8}).Config(); !errors.Is(err, ErrNoShards) {
			t.Errorf("sessions %d: %v, want ErrNoShards", sessions, err)
		}
	}
	if _, err := bindAndParse(t, "-sessions", "0").Config(); !errors.Is(err, ErrNoShards) {
		t.Errorf("-sessions 0: %v, want ErrNoShards", err)
	}
}
