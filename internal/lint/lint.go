// Package lint is sivet's analysis kernel: a dependency-free (stdlib
// go/parser + go/types + go/importer only) analyzer driver for the
// project-specific invariants that keep the paper's guarantee honest.
// The five analyzers — chargedreads, lockguard, typederr, wirejson,
// entrybound — machine-check what DESIGN.md states in prose: every store
// access is charged to ExecStats (reads ≤ M is only as strong as the
// charging discipline), documented lock ownership is real, errors stay
// errors.Is-able, the wire surface stays snake_case with exact int64
// decoding, and every bound is priced through the one cost algebra.
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, testdata with
// `// want "regex"` expectations) without importing it: the repo ships
// no go.sum, and the invariant checker must not be the first thing to
// break that.
//
// Suppression: a finding can be waived with a directive comment on the
// same line or the line directly above it:
//
//	//sivet:ignore <analyzer>[,<analyzer>] -- <reason>
//
// The reason is mandatory; a directive without one is itself a
// diagnostic. Waivers are for documented exceptions (the eval.DBSource
// reference oracle, offline precomputation in NewMaintainer), not an
// escape hatch — each one names the invariant it suspends.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one invariant checker. Run inspects a single package
// and reports findings through the Pass; analyzers that only apply to
// part of the module (chargedreads, wirejson) filter by import path
// themselves so the driver stays uniform.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Package is one loaded, type-checked module package.
type Package struct {
	Path    string // import path
	ModPath string // module root path ("repro" in this repo)
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Pass carries one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags   *[]Diagnostic
	ignores ignoreIndex
}

// A Diagnostic is one finding at a resolved position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding unless an ignore directive waives it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.waived(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers is the full suite in the order sivet runs it.
func Analyzers() []*Analyzer {
	return []*Analyzer{ChargedReads, LockGuard, TypedErr, WireJSON, EntryBound}
}

// Run applies each analyzer to each package and returns the surviving
// findings sorted by position. Malformed sivet directives are reported
// as findings of the pseudo-analyzer "sivet".
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := buildIgnoreIndex(fset, pkg.Files, &diags)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &diags, ignores: ignores}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreIndex maps filename → line → analyzer names waived on that line.
type ignoreIndex map[string]map[int][]string

var ignoreRe = regexp.MustCompile(`^//sivet:ignore\s+([a-z][a-z0-9,]*)\s+--\s+\S`)

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) ignoreIndex {
	idx := make(ignoreIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//sivet:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "sivet",
						Message:  `malformed directive: want "//sivet:ignore <analyzer>[,<analyzer>] -- <reason>" (the reason is mandatory)`,
					})
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					idx[pos.Filename] = byLine
				}
				names := strings.Split(m[1], ",")
				byLine[pos.Line] = append(byLine[pos.Line], names...)
			}
		}
	}
	return idx
}

// waived reports whether a directive on the diagnostic's line or the
// line directly above names the analyzer.
func (idx ignoreIndex) waived(pos token.Position, analyzer string) bool {
	byLine := idx[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// --- shared type helpers ---

// suffixMatch reports whether the import path is exactly suffix or ends
// in "/"+suffix — analyzers match project packages by suffix so their
// testdata stubs (fake module roots) hit the same rules as the real tree.
func suffixMatch(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type name declared in a package whose import path ends in pkgSuffix.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return suffixMatch(obj.Pkg().Path(), pkgSuffix)
}

// typeString renders a receiver type compactly for diagnostics.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}
