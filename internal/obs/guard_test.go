package obs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneEncoderOneShell walks the repository's non-test Go source and
// fails if anything outside this package (and outside bench/, which is its
// own module) encodes the exposition format, builds an http.Server, binds
// a TCP listener or runs a Shutdown — the decisions this package exists to
// hold in one place.
func TestOneEncoderOneShell(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not at %s: %v", root, err)
	}
	// Assembled so this file does not contain them.
	banned := []string{"# " + "TYPE", "# " + "HELP", "http.Server" + "{", ".Shutdown" + "(", "net.Listen" + `("tcp"`}
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "obs") || strings.HasPrefix(d.Name(), ".") && rel != "." {
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
		for _, b := range banned {
			if strings.Contains(string(src), b) {
				t.Errorf("%s contains %q: use internal/obs (Writer, Serve) instead", rel, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walk saw only %d source files; is the root right?", files)
	}
}
