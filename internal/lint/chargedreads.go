package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// ChargedReads enforces the paper's charging discipline inside the
// serving packages (internal/plan, internal/eval, internal/core): every
// read of stored data must flow through the charging entry points —
// the Backend's FetchInto/MembershipInto/ScanInto* or an explicit
// ExecStats.ChargeTo — because one silent bypass voids reads ≤ M for
// every bound the admission controller reserved against it. Direct
// calls that return stored tuples without charging, and construction of
// the uncounted eval.DBSource oracle outside internal/eval, are errors.
//
// Charged is not enough where requests are answered (internal/core,
// internal/server, internal/shard): there every answer must come from a
// bounded plan, so calling the naive evaluator's counted full-scan entry
// points (eval.NewStoreSource, eval.Stream) is an error too — its reads
// are charged but grow with |D|, and no admission bound covers them.
var ChargedReads = &Analyzer{
	Name: "chargedreads",
	Doc:  "store reads in serving code must flow through the ExecStats charging entry points",
	Run:  runChargedReads,
}

// chargedServingPkgs are the package-path suffixes where the discipline
// is enforced — the packages that execute plans against live data.
var chargedServingPkgs = []string{"internal/plan", "internal/eval", "internal/core"}

// boundedServingPkgs are the package-path suffixes that answer requests,
// where only bounded plans may evaluate queries.
var boundedServingPkgs = []string{"internal/core", "internal/server", "internal/shard"}

// unboundedEvals are the internal/eval functions that evaluate a query by
// counted full scans.
var unboundedEvals = []string{"NewStoreSource", "Stream"}

// unchargedReads are the (receiver package suffix, receiver type,
// method) triples that hand back stored data without touching
// ExecStats. The charging wrappers themselves live in internal/store,
// which is exempt: it is the layer that implements the charge points.
var unchargedReads = []struct {
	pkg, typ, meth string
}{
	{"internal/relation", "Relation", "Tuples"},
	{"internal/relation", "Relation", "Contains"},
	{"internal/relation", "Relation", "Find"},
	{"internal/index", "Index", "Lookup"},
	{"internal/store", "DB", "Data"},
	{"internal/store", "DB", "CloneData"},
	{"internal/store", "DB", "FetchUncounted"},
	{"internal/store", "Backend", "CloneData"},
}

func runChargedReads(pass *Pass) {
	path := pass.Pkg.Path
	inAny := func(suffixes []string) bool {
		return slices.ContainsFunc(suffixes, func(s string) bool { return suffixMatch(path, s) })
	}
	charged, bounded := inAny(chargedServingPkgs), inAny(boundedServingPkgs)
	if !charged && !bounded {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if bounded {
					if name, ok := unboundedEval(info, n); ok {
						pass.Reportf(n.Pos(),
							"unbounded evaluation: eval.%s answers by counted full scans whose reads grow with |D|; serving code answers through a bounded plan or fails with ErrNotControllable",
							name)
					}
				}
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !charged {
					return true
				}
				selection := info.Selections[sel]
				if selection == nil || selection.Obj() == nil {
					return true
				}
				recv := selection.Recv()
				for _, b := range unchargedReads {
					if sel.Sel.Name == b.meth && isNamedType(recv, b.pkg, b.typ) {
						pass.Reportf(n.Pos(),
							"uncharged read: (%s).%s bypasses the ExecStats charge points (FetchInto/MembershipInto/ScanInto*/ChargeTo); an uncounted access voids reads ≤ M",
							typeString(recv), sel.Sel.Name)
						break
					}
				}
			case *ast.CompositeLit:
				// The DBSource oracle is uncounted by design; serving
				// code must not construct one.
				if !charged || suffixMatch(path, "internal/eval") {
					return true
				}
				if tv, ok := info.Types[ast.Expr(n)]; ok && isNamedType(tv.Type, "internal/eval", "DBSource") {
					pass.Reportf(n.Pos(),
						"uncharged oracle: eval.DBSource reads are invisible to ExecStats; serving code must execute through a charged Source (plan runtime over store.Backend)")
				}
			}
			return true
		})
	}
}

// unboundedEval reports whether call invokes one of the unboundedEvals,
// returning its name.
func unboundedEval(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !suffixMatch(fn.Pkg().Path(), "internal/eval") {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil || !slices.Contains(unboundedEvals, fn.Name()) {
		return "", false
	}
	return fn.Name(), true
}
