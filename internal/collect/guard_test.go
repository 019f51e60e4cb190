package collect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestOneRemoteFold keeps the repository at one place where shard
// accumulators cross a process boundary online — internal/coord — and this
// package at one payload kind. It fails if internal/collect or
// internal/archive imports internal/campaign, if a non-test file outside
// internal/campaign and internal/coord (bench/ is its own module) records a
// shard into a campaign checkpoint, if a PayloadKind constant other than
// PayloadEvents is declared, if a non-test file names any part of the
// deleted campaign lane again, or if a non-test file names WriterArchiver,
// the in-memory archive lane beside archive.Store, again.
func TestOneRemoteFold(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not at %s: %v", root, err)
	}
	const campaignPath, record = "bba/internal/campaign", ".Record("
	events := map[string]bool{filepath.Join("internal", "collect"): true, filepath.Join("internal", "archive"): true}
	folds := map[string]bool{filepath.Join("internal", "campaign"): true, filepath.Join("internal", "coord"): true}
	lane := []string{
		"PayloadShard", "PayloadRunStart", "PayloadRunEnd", "ShipShard", "ShipRunStart", "ShipRunEnd",
		"OnShard", "OnJoin", "ErrUnknownRun", "ErrRunIncomplete", "ErrDedupWindow", "/report/",
	}
	var kinds []string
	fset := token.NewFileSet()
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
		dir, test := filepath.Dir(rel), strings.HasSuffix(path, "_test.go")
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !test && !folds[dir] && strings.Contains(string(src), record) {
			t.Errorf("%s calls %s): a shard reaches another process's checkpoint through internal/coord", rel, record)
		}
		for _, name := range lane {
			if !test && strings.Contains(string(src), name) {
				t.Errorf("%s names %s: the collector's campaign lane is gone; shards go through internal/coord", rel, name)
			}
		}
		if !test && strings.Contains(string(src), "WriterArchiver") {
			t.Errorf("%s names WriterArchiver: one archive lane: archive.Store", rel)
		}
		if !events[dir] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == campaignPath {
				t.Errorf("%s imports %s: the event pipeline admits events, the coordinator aggregates shards", rel, campaignPath)
			}
		}
		if !test && f.Name.Name == "collect" {
			kinds = append(kinds, payloadKindConsts(f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walk saw only %d source files; is the root right?", files)
	}
	if want := []string{"PayloadEvents"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("PayloadKind constants %v, want only %v: the collector has one payload kind", kinds, want)
	}
}

// payloadKindConsts names the constants f declares with type PayloadKind:
// typed outright, converted, or continuing such a spec in an iota block.
func payloadKindConsts(f *ast.File) []string {
	isKind := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "PayloadKind"
	}
	var names []string
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		kind := false // whether the spec an implicit repetition copies is a PayloadKind
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil || len(vs.Values) > 0 {
				kind = vs.Type != nil && isKind(vs.Type)
				for _, v := range vs.Values {
					if call, ok := v.(*ast.CallExpr); ok && isKind(call.Fun) {
						kind = true
					}
				}
			}
			if kind {
				for _, n := range vs.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

// TestCollectWritesNoFiles keeps the shipper's queue in memory and its
// stream in order: it fails if a non-test file of this package imports os
// or path/filepath, or names an identifier of deleted machinery — a field
// of the disk spill, the shipper's sender count, or the collector's
// reorder window. The spill had the shape of a durable queue without its
// property — nothing survived a restart — so a file writer coming back here
// needs a durability contract first. A second sender would reorder a
// stream, and the collector keeps one watermark per stream on the promise
// that nothing does.
func TestCollectWritesNoFiles(t *testing.T) {
	spill, window := "the disk spill is gone", "a stream is one watermark: the reorder window is gone"
	banned := map[string]string{
		"SpillDir": spill, "MaxSpillBytes": spill, "Spilled": spill,
		"Senders":     "a shipper has one in-order sender",
		"DedupWindow": window, "admitSlide": window, "parked": window,
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" || p == "path/filepath" {
				t.Errorf("%s imports %s: the shipper's frame queue is memory only", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && banned[id.Name] != "" {
				t.Errorf("%s names %s: %s", fset.Position(id.Pos()), id.Name, banned[id.Name])
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test source files checked")
	}
}

// TestDashServesOneManifest keeps the origin at the one manifest a client
// fetches, the JSON document carrying every chunk's size: it fails if a
// non-test file of internal/dash names an HLS playlist or the MPEG-DASH
// MPD again, or imports encoding/xml to render one. No player took either
// path; both carried nominal sizes only, without which BBA-1 has no chunk
// map, and both were a second manifest to serve and keep in step.
func TestDashServesOneManifest(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "dash", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, name := range []string{"m3u8", "manifest.mpd"} {
			if strings.Contains(string(src), name) {
				t.Errorf("%s names %s: the origin serves one manifest, /manifest.json", path, name)
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/xml" {
				t.Errorf("%s imports encoding/xml: the origin renders no XML manifest", path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test internal/dash files checked")
	}
}

// TestNoUnsetKnobs keeps settings that nothing set from coming back: it
// fails if a non-test file declares one of these names again ("Type.Field",
// a top-level name, or a "-flag"). Every run took their defaults, which are
// now constants or the only behaviour; a trace outage is laid by
// faults.Schedule.ApplyToTrace. Each row's first name stays, so a renamed
// type cannot make the check vacuous.
func TestNoUnsetKnobs(t *testing.T) {
	for dir, names := range map[string][]string{
		"internal/soak":       {"Config.Seed", "Config.BaseURL", "Config.DisableFaults"},
		"cmd/bbasoak":         {"-seed", "-url", "-faults"},
		"internal/player":     {"RetryPolicy.Seed", "Config.ResumeThreshold", "RetryPolicy.Budget", "RetryPolicy.BackoffBase", "RetryPolicy.BackoffCap"},
		"internal/media":      {"VBRConfig.NumChunks", "VBRConfig.MeanSceneChunks", "VBRConfig.MeanSequenceChunks", "VBRConfig.SequenceSigma", "VBRConfig.SceneSigma", "VBRConfig.ChunkJitter", "VBRConfig.MaxToAvg", "VBRConfig.MinToAvg"},
		"internal/sharedlink": {"PlayerConfig.WatchLimit", "PlayerConfig.BufferMax"},
		".":                   {"SessionConfig.Algorithm", "SessionConfig.AlgorithmFactory"},
		"internal/coord":      {"Client.HTTP", "Client.Retries", "Client.RetryDelay"},
		"internal/telemetry":  {"Capture.Events", "Capture.Session"},
		"internal/trace":      {"Override", "WithOutages", "Outage"},
	} {
		decl := declared(t, filepath.Join("..", "..", dir))
		if !decl[names[0]] {
			t.Errorf("%s declares no %s: the guard no longer sees what it checks", dir, names[0])
		}
		for _, name := range names[1:] {
			if decl[name] {
				t.Errorf("%s declares %s again: it went because nothing set it", dir, name)
			}
		}
	}
}

// declared returns what dir's non-test files declare: top-level functions
// and types, "Type.Field" for the fields of struct types, and "-name" for
// the flags flag.* calls define.
func declared(t *testing.T, dir string) map[string]bool {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := make(map[string]bool)
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					out[n.Name.Name] = true
				}
			case *ast.TypeSpec:
				out[n.Name.Name] = true
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							out[n.Name.Name+"."+id.Name] = true
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
					pkg, _ := sel.X.(*ast.Ident)
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && pkg != nil && pkg.Name == "flag" {
						out["-"+strings.Trim(lit.Value, `"`)] = true
					}
				}
			}
			return true
		})
	}
	return out
}
