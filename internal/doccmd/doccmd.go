// Package doccmd is test support for the commands' doc tests: it finds the
// command lines the repo's documents quote, so each command can parse them
// against its real flag set and a document cannot quote a deleted flag.
package doccmd

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Files are the documents that quote command lines, relative to the repo
// root; the package comment of every cmd/*/main.go is read as well.
var Files = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// Line is one quoted command line: its arguments and where it was found.
type Line struct {
	Where string
	Args  []string
}

// Lines returns every command line of the named binary quoted in Files under
// root: a fenced code block's line, or elsewhere a `code span`, that starts
// with the binary — bare, at the end of a path, under `go run ./cmd/`, or
// assigned to a shell variable — and every tab-indented example line of a
// command's package comment that does. A line ends at a shell operator, a
// redirection, a comment, a closing quote or a line continuation; single
// quotes around an argument are dropped.
func Lines(t testing.TB, root, binary string) []Line {
	t.Helper()
	command := `(?:\w+=")?(?:go run \./cmd/|[^\s` + "`" + `]*/)?` + binary + `((?: +[^\s` + "`" + `#|>&;"]+)*)`
	fenced := regexp.MustCompile(`^\s*` + command)
	span := regexp.MustCompile("`" + command)
	redirect := regexp.MustCompile(` \d?>.*`)
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go under %s: %v", root, err)
	}
	var lines []Line
	for _, path := range append(mains, Files...) {
		file := strings.TrimPrefix(path, root+string(filepath.Separator))
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		goFile, inFence := strings.HasSuffix(file, ".go"), false
		for n, text := range strings.Split(string(data), "\n") {
			if goFile {
				// A command's examples are its doc comment's tab-indented lines.
				var example bool
				if text, example = strings.CutPrefix(text, "//\t"); !example {
					continue
				}
			} else if strings.HasPrefix(strings.TrimSpace(text), "```") {
				inFence = !inFence
				continue
			}
			re := span
			if inFence || goFile {
				re = fenced
			}
			for _, m := range re.FindAllStringSubmatch(redirect.ReplaceAllString(text, ""), -1) {
				fields := strings.Fields(strings.TrimSuffix(strings.ReplaceAll(m[1], "'", ""), `\`))
				lines = append(lines, Line{Where: fmt.Sprintf("%s:%d", file, n+1), Args: fields})
			}
		}
	}
	return lines
}
