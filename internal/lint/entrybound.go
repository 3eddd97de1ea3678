package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// EntryBound keeps the cost algebra in one place: inside internal/plan
// and internal/core, every price reads an access entry's N through
// plan.EntryBound, so a read of access.Entry.N (directly or through a
// struct embedding Entry, such as access.Located) anywhere but
// internal/plan/cost.go is an error. Writes (building an entry) are not
// reads; a read that is not a price, such as a conformance check of
// data against the declared N, is waived in place.
var EntryBound = &Analyzer{
	Name: "entrybound",
	Doc:  "plan and core read access.Entry.N only through plan.EntryBound (internal/plan/cost.go)",
	Run:  runEntryBound,
}

// entryBoundPkgs are the package-path suffixes where every price goes
// through plan.EntryBound.
var entryBoundPkgs = []string{"internal/plan", "internal/core"}

func runEntryBound(pass *Pass) {
	path := pass.Pkg.Path
	if !slices.ContainsFunc(entryBoundPkgs, func(s string) bool { return suffixMatch(path, s) }) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		if suffixMatch(path, "internal/plan") && filepath.Base(pass.Fset.File(file.Pos()).Name()) == "cost.go" {
			continue // the one reader
		}
		writes := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Visited before its operands: a plain assignment's
				// targets are writes.
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							writes[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if !writes[n] && isEntryN(info, n) {
					pass.Reportf(n.Sel.Pos(),
						"read of access.Entry.N outside plan/cost.go: price an entry through plan.EntryBound, so every bound reads N in one place")
				}
			}
			return true
		})
	}
}

// isEntryN reports whether sel selects the N field of access.Entry,
// possibly through embedding.
func isEntryN(info *types.Info, sel *ast.SelectorExpr) bool {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || sel.Sel.Name != "N" {
		return false
	}
	field := s.Obj()
	if field.Pkg() == nil || !suffixMatch(field.Pkg().Path(), "internal/access") {
		return false
	}
	entry, ok := field.Pkg().Scope().Lookup("Entry").(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := entry.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := range st.NumFields() {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}
