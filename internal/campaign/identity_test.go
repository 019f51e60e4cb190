package campaign

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
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

// TestOneCampaignFrontDoor walks the repository's Go source (bench/ is its
// own module) and fails if the identity flags are declared in a second
// place — the flag names "shard-size", "fault-seed" and "sketch" (as a call
// argument, which a struct tag is not) belong to exactly one non-test file,
// Identity.Bind's; dashserver's -fault-seed seeds the origin's own fault
// schedule, not a campaign's — or if anything outside internal/abr assigns
// an estimator's InitialEstimate by hand instead of building its arm with
// abtest.Groups (SeedCapacity is the seam).
func TestOneCampaignFrontDoor(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not at %s: %v", root, err)
	}
	// Assembled so this file does not contain them.
	flags := []string{`"shard-` + `size",`, `"fault-` + `seed",`, `"sk` + `etch",`}
	assign := ".Initial" + "Estimate = "
	declared := map[string][]string{}
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), assign) && !strings.HasPrefix(rel, filepath.Join("internal", "abr")+string(filepath.Separator)) {
			t.Errorf("%s assigns %q: build the arm with abtest.Groups, or call SeedCapacity", rel, strings.TrimSpace(assign))
		}
		if strings.HasSuffix(path, "_test.go") || rel == filepath.Join("cmd", "dashserver", "main.go") {
			return nil
		}
		for _, f := range flags {
			if strings.Contains(string(src), f) {
				declared[f] = append(declared[f], rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walk saw only %d source files; is the root right?", files)
	}
	want := []string{filepath.Join("internal", "campaign", "identity.go")}
	for _, f := range flags {
		if !reflect.DeepEqual(declared[f], want) {
			t.Errorf("%s occurs in %v, want only %v: bind the identity flags with campaign.Identity.Bind", f, declared[f], want)
		}
	}
}
