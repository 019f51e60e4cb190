package abr

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOneDecisionPath keeps the BBA decision rule at one implementation of
// each piece: Algorithm1Chunk over the title's size column, the TitlePlan
// reservoir, media.Video's window sum. It fails if a non-test file (bench/
// is its own module) names any part of the deleted second copy — the
// per-session reservoir scan, the three ladder-scan helpers, the
// plan-or-no-plan dispatch, the plan-lending interfaces that came before
// plans were shared on the title — or if this package evaluates the chunk map
// anywhere but in the barrier rule and the lookahead test, which is where a
// re-forked decision would have to start.
func TestOneDecisionPath(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not at %s: %v", root, err)
	}
	gone := []string{"reservoirPlan", "highestChunkAtMost", "highestChunkBelow", "lowestChunkAbove", "sharedPlan", "chunkCol",
		"PlanSource", "PlanConsumer", "UsePlans"}
	const evaluate = ".MaxChunk("
	evaluates := map[string]int{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range gone {
			if strings.Contains(string(src), name) {
				t.Errorf("%s names %s: decisions read a TitlePlan and the title's size column; there is no second path to select", rel, name)
			}
		}
		if n := strings.Count(string(src), evaluate); n > 0 && filepath.Dir(rel) == filepath.Join("internal", "abr") {
			evaluates[filepath.Base(rel)] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walk saw only %d source files; is the root right?", files)
	}
	if want := map[string]int{"chunkmap.go": 1, "bbaothers.go": 1}; !reflect.DeepEqual(evaluates, want) {
		t.Errorf("internal/abr evaluates the chunk map (%s) in %v, want only %v: Algorithm1Chunk and upSwitchSurvivesLookahead", evaluate, evaluates, want)
	}
}
