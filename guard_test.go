package bba_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// guard is one rule over its scope, the files in dirs (or all) and test files
// only when tests is set: names (forms, see goFile) and texts (substrings of
// string literals) occur only at the only sites, nowhere when only is empty. A
// site is a directory, a file, or "dir.Func", the top-level function or const.
type guard struct {
	name, why                string
	dirs, names, texts, only []string
	anchors                  []string // forms that must still occur in scope
	tests                    bool
}

// TestGuards holds each design decision to one path. It parses the module's
// Go files once (not bench/, its own module, nor dot directories or testdata)
// and runs each row as a subtest; rows match the syntax tree, so comments
// never trip them. When a change deletes a path or a knob, append a row with
// the reason in why; do not write another walker. No row passes vacuously: it
// fails when a directory of its scope holds no file, when an anchor no longer
// occurs, or when a form it confines occurs nowhere.
func TestGuards(t *testing.T) {
	guards := []guard{
		{name: "events-import-no-campaign", dirs: []string{"internal/collect", "internal/archive"}, tests: true,
			names: []string{`"bba/internal/campaign"`}, why: "the event pipeline admits events; the coordinator aggregates shards"},
		{name: "shards-fold-in-coord", names: []string{".Record("}, only: []string{"internal/campaign", "internal/coord"}, why: "shards cross processes through internal/coord"},
		{name: "campaign-lane-gone", anchors: []string{"PayloadEvents"}, texts: []string{"/report/"}, names: []string{"PayloadShard", "PayloadRunStart",
			"PayloadRunEnd", "ShipShard", "ShipRunStart", "ShipRunEnd", "OnShard", "OnJoin", "ErrUnknownRun", "ErrRunIncomplete", "ErrDedupWindow"},
			why: "the collector's campaign lane is gone; shards go through internal/coord"},
		{name: "one-payload-kind", names: []string{"const PayloadKind"}, only: []string{"internal/collect.PayloadEvents"}, why: "the collector has one payload kind"},
		{name: "one-archive-lane", names: []string{"WriterArchiver"}, anchors: []string{"Archiver"}, why: "one archive lane: archive.Store, behind collect.Archiver"},
		{name: "shipper-queue-in-memory", dirs: []string{"internal/collect"}, names: []string{`"os"`, `"path/filepath"`, "SpillDir", "MaxSpillBytes", "Spilled"},
			anchors: []string{"QueueConfig.MemFrames"}, why: "the disk spill looked durable and was not: a file writer here needs a durability contract first"},
		{name: "one-ordered-stream", dirs: []string{"internal/collect"}, names: []string{"Senders", "DedupWindow", "admitSlide", "parked"},
			anchors: []string{"ShipperConfig.Session"}, why: "a shipper has one in-order sender, so the collector keeps one watermark per stream and no reorder window"},
		{name: "one-manifest", dirs: []string{"internal/dash"}, names: []string{`"encoding/xml"`}, texts: []string{"m3u8", "manifest.mpd"},
			anchors: []string{"Manifest"}, why: "the origin serves one manifest, /manifest.json; no player took the HLS or MPD path, and neither had the chunk sizes"},
		{name: "unset-knobs", dirs: []string{"internal/soak", "cmd/bbasoak", "internal/player", "internal/media", "internal/sharedlink", ".", "internal/coord",
			"internal/telemetry", "internal/trace"}, anchors: []string{"Config.Seed", `"seed"`, "RetryPolicy.Seed", "VBRConfig.NumChunks",
			"PlayerConfig.WatchLimit", "SessionConfig.Algorithm", "Client.HTTP", "Capture.Events", "Override"}, names: []string{"Config.BaseURL",
			"Config.DisableFaults", `"url"`, `"faults"`, "Config.ResumeThreshold", "RetryPolicy.Budget", "RetryPolicy.BackoffBase", "RetryPolicy.BackoffCap",
			"VBRConfig.MeanSceneChunks", "VBRConfig.MeanSequenceChunks", "VBRConfig.SequenceSigma", "VBRConfig.SceneSigma", "VBRConfig.ChunkJitter",
			"VBRConfig.MaxToAvg", "VBRConfig.MinToAvg", "PlayerConfig.BufferMax", "SessionConfig.AlgorithmFactory", "Client.Retries", "Client.RetryDelay",
			"Capture.Session", "WithOutages", "Outage"}, why: "nothing set these knobs: each default is now a constant or the only behaviour, " +
			"and a trace outage is laid by faults.Schedule.ApplyToTrace"},
		{name: "one-decision-path", anchors: []string{"TitlePlan"}, names: []string{"reservoirPlan", "highestChunkAtMost", "highestChunkBelow", "lowestChunkAbove",
			"sharedPlan", "chunkCol", "PlanSource", "PlanConsumer", "UsePlans"}, why: "decisions read a TitlePlan and the title's size column: no second path"},
		{name: "chunk-map-in-barrier-and-lookahead", dirs: []string{"internal/abr"}, names: []string{".MaxChunk("},
			only: []string{"internal/abr.Algorithm1Chunk", "internal/abr.upSwitchSurvivesLookahead"}, why: "a re-forked decision would start here"},
		{name: "identity-flags-bound-once", names: []string{`"shard-size"`, `"sketch"`}, only: []string{"internal/campaign/identity.go"}, why: "use Identity.Bind"},
		{name: "fault-seed-flag", names: []string{`"fault-seed"`}, only: []string{"internal/campaign/identity.go", "cmd/dashserver/main.go"},
			why: "a campaign's -fault-seed is bound by campaign.Identity.Bind; dashserver's seeds the origin's own fault schedule"},
		{name: "initial-estimate-in-abr", tests: true, names: []string{".InitialEstimate ="}, only: []string{"internal/abr"}, why: "use abtest.Groups or SeedCapacity"},
		{name: "one-block-reader", dirs: []string{"internal/archive"}, names: []string{"decodeRows", "readFooter", "readBlock", "os.ReadFile", "walLinesLocked"},
			anchors: []string{"readWAL"}, why: "blocks are read through Block.open and Block.page, the WAL through readWAL: no second decoder, no whole-file read"},
		{name: "wal-opened-in-openWAL", dirs: []string{"internal/archive"}, names: []string{"os.OpenFile("}, only: []string{"internal/archive.openWAL"},
			why: "every WAL read goes through readWAL into a buffer the reader owns, over the one file openWAL opens"},
		{name: "blocks-opened-by-walker", dirs: []string{"internal/archive"}, names: []string{".openFile("}, only: []string{"internal/archive.prepare"},
			why: "every query walks its blocks through one loop: only the walker's prepare opens a block file"},
		{name: "one-encoder", texts: []string{"# TYPE", "# HELP"}, only: []string{"internal/obs"}, why: "encode the exposition format with obs.Writer"},
		{name: "one-shell", names: []string{"http.Server{", ".Shutdown(", "net.Listen("}, only: []string{"internal/obs"}, why: "serve through obs.Serve"},
		{name: "one-session-loop", names: []string{"abr.State{", ".AddChunk("}, only: []string{"internal/player"}, why: "drive a player.Session instead"},
		{name: "control-plane-no-event-stream", dirs: []string{"internal/campaign", "internal/coord", "internal/arena"},
			names: []string{`"bba/internal/telemetry"`}, why: "the control plane reports through its own counters"},
		{name: "no-deferred-trace", dirs: []string{"internal/trace", "internal/abtest"}, names: []string{"Deferred", "deferral", `"sync"`},
			anchors: []string{"DrawKeyed"}, why: "a keyed draw's User holds its key, and SessionEnv composes its trace again from it: no trace is written lazily"},
	}
	forms, texts := map[string]bool{}, []string(nil)
	for _, g := range guards {
		for _, n := range slices.Concat(g.names, g.texts, g.anchors) {
			forms[n] = true
		}
		texts = append(texts, g.texts...)
	}
	files := parseModule(t, forms, texts)
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) { g.run(t, files) })
	}
	// Each alternative of every -run and -fuzz pattern in the CI workflow
	// matches a Test or Fuzz function of a package the same command lists.
	t.Run("ci-names-exist", func(t *testing.T) {
		src, err := os.ReadFile(".github/workflows/ci.yml")
		if err != nil {
			t.Fatal(err)
		}
		pattern, pkg, checked := regexp.MustCompile(`-(?:run|fuzz)[ =]'(\^?\w[^']*)'`), regexp.MustCompile(`\./[\w/]*\w`), 0
		for _, line := range strings.Split(string(src), "\n") {
			pkgs := pkg.FindAllString(line, -1)
			for _, m := range pattern.FindAllStringSubmatch(line, -1) {
				for _, alt := range strings.Split(m[1], "|") {
					re := regexp.MustCompile(alt)
					if checked++; !slices.ContainsFunc(files, func(f *goFile) bool {
						return slices.Contains(pkgs, "./"+f.dir) && slices.ContainsFunc(f.tests, re.MatchString)
					}) {
						t.Errorf("ci.yml runs %s, and no Test or Fuzz function of the packages on its line matches it", alt)
					}
				}
			}
		}
		if checked == 0 {
			t.Error("ci.yml names no test: the guard no longer sees what it checks")
		}
	})
}

func (g guard) run(t *testing.T, files []*goFile) {
	seen := map[string]bool{}
	for _, f := range files {
		if !g.tests && f.test || g.dirs != nil && !slices.Contains(g.dirs, f.dir) {
			continue
		}
		seen[f.dir] = true
		for _, h := range f.hits {
			seen[h.form] = true
			if (slices.Contains(g.names, h.form) || slices.Contains(g.texts, h.form)) &&
				!slices.ContainsFunc(g.only, func(site string) bool { return site == f.dir || site == f.rel || site == f.dir+"."+h.decl }) {
				t.Errorf("%s: %s: %s", h.pos, h.form, g.why)
			}
		}
	}
	need := slices.Concat(g.anchors, g.dirs)
	if g.only != nil {
		need = slices.Concat(need, g.names, g.texts)
	}
	for _, n := range need {
		if !seen[n] {
			t.Errorf("%s is not in scope: the guard no longer sees what it checks", n)
		}
	}
}

// goFile is one Go file: its paths from the module root, its Test and Fuzz
// functions, and its hits, where it spells a form or text a guard names. A
// form is code as written ("x", "x.Y", ".Y", calls "x.Y(" and ".Y(", literals
// "x.Y{", assignments ".Y =", strings and import paths "\"s\"", fields
// "Type.Field"), or "const Type" declaring a constant of Type, decl its name.
type goFile struct {
	rel, dir string
	test     bool
	tests    []string
	hits     []struct{ form, decl, pos string }
}

// parseModule parses every Go file under the module root, one worker a CPU.
func parseModule(t *testing.T, forms map[string]bool, texts []string) []*goFile {
	fset, files := token.NewFileSet(), []*goFile(nil)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		p = filepath.ToSlash(p)
		f := &goFile{rel: p, dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go")}
		files = append(files, f)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			if err := f.parse(fset, forms, texts); err != nil {
				t.Error(err)
			}
		}()
		return nil
	})
	wg.Wait()
	if err != nil || t.Failed() {
		t.Fatal("parsing the module:", err)
	}
	return files
}

func (f *goFile) parse(fset *token.FileSet, forms map[string]bool, texts []string) error {
	file, err := parser.ParseFile(fset, f.rel, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, d := range file.Decls {
		decl := ""
		add := func(form string, at token.Pos) {
			if forms[form] {
				f.hits = append(f.hits, struct{ form, decl, pos string }{form, decl, fset.Position(at).String()})
			}
		}
		spell := func(e ast.Expr, suffix string, at token.Pos) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				suffix = "." + sel.Sel.Name + suffix
				add(suffix, at)
				e = sel.X
			}
			if id, ok := e.(*ast.Ident); ok {
				add(id.Name+suffix, at)
			}
		}
		if gen, ok := d.(*ast.GenDecl); ok && gen.Tok == token.CONST {
			var typ ast.Expr // a spec without values repeats the last one with them
			for _, spec := range gen.Specs {
				if vs := spec.(*ast.ValueSpec); len(vs.Values) > 0 {
					typ = vs.Type
					if call, ok := vs.Values[0].(*ast.CallExpr); ok && typ == nil {
						typ = call.Fun // a conversion
					}
				}
				for _, id := range spec.(*ast.ValueSpec).Names {
					if typ, ok := typ.(*ast.Ident); ok {
						decl = id.Name
						add("const "+typ.Name, id.Pos())
					}
				}
			}
		}
		if fd, ok := d.(*ast.FuncDecl); ok {
			decl = fd.Name.Name
			if f.test && fd.Recv == nil && (strings.HasPrefix(decl, "Test") || strings.HasPrefix(decl, "Fuzz")) {
				f.tests = append(f.tests, decl)
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							add(n.Name.Name+"."+id.Name, id.Pos())
						}
					}
				}
			case *ast.Ident, *ast.SelectorExpr:
				spell(n.(ast.Expr), "", n.Pos())
			case *ast.CompositeLit:
				spell(n.Type, "{", n.Pos())
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					spell(lhs, " "+n.Tok.String(), n.Pos())
				}
			case *ast.CallExpr:
				spell(n.Fun, "(", n.Pos())
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
					add(strconv.Quote(v), n.Pos())
					for _, s := range texts {
						if strings.Contains(v, s) {
							add(s, n.Pos())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
