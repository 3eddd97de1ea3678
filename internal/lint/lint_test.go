package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Each testdata tree under testdata/<name>/src is a fake module whose
// import paths mirror the real layout (<root>/internal/...), so the
// analyzers' package-suffix matching hits the same rules as on the
// real tree. Expectations are x/tools-style `// want "regex"` comments
// on the diagnostic's line; the whole suite runs on every tree, so a
// stray finding from any analyzer fails the test.

func TestChargedReadsTestdata(t *testing.T) { runTestdata(t, "chargedreads") }
func TestLockGuardTestdata(t *testing.T)    { runTestdata(t, "lockguard") }
func TestTypedErrTestdata(t *testing.T)     { runTestdata(t, "typederr") }
func TestWireJSONTestdata(t *testing.T)     { runTestdata(t, "wirejson") }
func TestEntryBoundTestdata(t *testing.T)   { runTestdata(t, "entrybound") }

// TestModuleClean is the self-gate: the repository's own tree must stay
// free of findings. It is what `make sivet` checks in CI, kept in the
// test suite too so a plain `go test ./...` catches a new violation even
// where the Makefile is not in the loop.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	fset, pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(fset, pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}

func runTestdata(t *testing.T, name string) {
	t.Helper()
	src := filepath.Join("testdata", name, "src")
	fset, pkgs := loadTree(t, src)
	diags := Run(fset, pkgs, Analyzers())

	wants := collectWants(t, fset, pkgs)
	type key struct {
		file string
		line int
	}
	unmatched := make(map[key][]*wantExpectation)
	for i := range wants {
		w := &wants[i]
		unmatched[key{w.file, w.line}] = append(unmatched[key{w.file, w.line}], w)
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range unmatched[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", relPath(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", relPath(w.file), w.line, w.re)
		}
	}
}

type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
var quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*Package) []wantExpectation {
	t.Helper()
	var wants []wantExpectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, q := range quotedRe.FindAllString(m[1], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", relPath(pos.Filename), pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: want pattern %q does not compile: %v", relPath(pos.Filename), pos.Line, pat, err)
						}
						wants = append(wants, wantExpectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

func relPath(p string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p); err == nil {
			return r
		}
	}
	return p
}

// loadTree loads a testdata source tree as a fake module: every
// directory with .go files becomes a package whose import path is its
// path relative to src; stdlib imports resolve through export data like
// the real loader's.
func loadTree(t *testing.T, src string) (*token.FileSet, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	type tree struct {
		path    string
		files   []*ast.File
		imports []string
	}
	byPath := make(map[string]*tree)
	stdlib := make(map[string]bool)
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		rel, err := filepath.Rel(src, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pk := byPath[path]
		if pk == nil {
			pk = &tree{path: path}
			byPath[path] = pk
		}
		pk.files = append(pk.files, f)
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			pk.imports = append(pk.imports, ip)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", src, err)
	}
	if len(byPath) == 0 {
		t.Fatalf("no packages under %s", src)
	}

	modPath := ""
	for path, pk := range byPath {
		root, _, _ := strings.Cut(path, "/")
		if modPath == "" {
			modPath = root
		} else if root != modPath {
			t.Fatalf("testdata tree has two module roots: %s and %s", modPath, root)
		}
		for _, ip := range pk.imports {
			if byPath[ip] == nil {
				stdlib[ip] = true
			}
		}
	}

	var ext []string
	for ip := range stdlib {
		ext = append(ext, ip)
	}
	sort.Strings(ext)
	exports, err := exportFilesDeps(".", ext)
	if err != nil {
		t.Fatalf("resolving stdlib export data: %v", err)
	}
	chain := newChainImporter(fset, exports)

	var order []string
	state := make(map[string]int)
	var visit func(string) error
	visit = func(path string) error {
		pk := byPath[path]
		if pk == nil || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("import cycle through %s", path)
		}
		state[path] = 1
		for _, ip := range pk.imports {
			if err := visit(ip); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var paths []string
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			t.Fatal(err)
		}
	}

	var pkgs []*Package
	for _, path := range order {
		pk := byPath[path]
		tpkg, info, err := typeCheck(fset, chain, path, pk.files)
		if err != nil {
			t.Fatalf("type-checking testdata: %v", err)
		}
		chain.checked[path] = tpkg
		pkgs = append(pkgs, &Package{Path: path, ModPath: modPath, Files: pk.files, Types: tpkg, Info: info})
	}
	return fset, pkgs
}

// exportFilesDeps resolves export data for the given stdlib packages
// and their transitive dependencies (the gc importer may demand any of
// them while reading export data).
func exportFilesDeps(dir string, paths []string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	pkgs, err := goList(dir, append([]string{"-deps", "-export", "-json=ImportPath,Export"}, paths...)...)
	if err != nil {
		return nil, err
	}
	files := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			files[p.ImportPath] = p.Export
		}
	}
	return files, nil
}
