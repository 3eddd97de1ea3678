package core

import (
	"context"
	"fmt"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// UCQ controllability: a union of conjunctive queries is x̄-controlled when
// every disjunct is, after aligning each disjunct's head variables with a
// canonical head (the disjunction rule of Section 4 requires the disjuncts
// to share their free variables). The minimal controlling sets of the
// union are the pairwise unions across disjuncts, as in the rule.

// UCQResult carries the per-disjunct derivations under the canonical head
// naming.
type UCQResult struct {
	// Head is the canonical head variable list the disjuncts were renamed
	// to.
	Head []string
	// Derivs[i] lists the minimal derivations for disjunct i (renamed).
	Derivs [][]*Derivation
	// Renamed[i] is disjunct i with its head aligned to Head.
	Renamed []*query.CQ
	fam     Family
}

// Family returns the minimal controlling sets of the union.
func (r *UCQResult) Family() Family { return r.fam }

// Controls returns, for each disjunct, a derivation with controlling set
// ⊆ x̄ — or nil slices when some disjunct is not controlled.
func (r *UCQResult) Controls(x query.VarSet) []*Derivation {
	out := make([]*Derivation, len(r.Derivs))
	for i, ds := range r.Derivs {
		for _, d := range ds {
			if d.Ctrl.SubsetOf(x) {
				out[i] = d
				break
			}
		}
		if out[i] == nil {
			return nil
		}
	}
	return out
}

// AnalyzeUCQ analyzes every disjunct under a canonical head naming and
// combines the families per the disjunction rule.
func (a *Analyzer) AnalyzeUCQ(u *query.UCQ) (*UCQResult, error) {
	if len(u.Disjunct) == 0 {
		return nil, fmt.Errorf("core: %w: empty UCQ %s", ErrInvalidQuery, u.Name)
	}
	arity := len(u.Disjunct[0].Head)
	head := make([]string, arity)
	for i := range head {
		head[i] = fmt.Sprintf("u_h%d", i)
	}
	res := &UCQResult{Head: head}
	// Per-disjunct analysis under the canonical head.
	for di, d := range u.Disjunct {
		aligned, err := alignHead(d, head, di)
		if err != nil {
			return nil, err
		}
		res.Renamed = append(res.Renamed, aligned)
		r, err := a.Analyze(aligned.Formula())
		if err != nil {
			return nil, err
		}
		res.Derivs = append(res.Derivs, r.Derivs)
	}
	// Family of the union: unions of one minimal set per disjunct.
	sets := []query.VarSet{query.NewVarSet()}
	for _, ds := range res.Derivs {
		var next []query.VarSet
		for _, s := range sets {
			for _, d := range ds {
				next = append(next, s.Union(d.Ctrl))
			}
		}
		if len(next) == 0 {
			// Some disjunct has no controlling set at all.
			res.fam = nil
			return res, nil
		}
		if len(next) > 4*DefaultMaxSets {
			next = next[:4*DefaultMaxSets]
		}
		sets = next
	}
	res.fam = normalizeFamily(sets)
	return res, nil
}

// alignHead renames a disjunct so its head variables match the canonical
// names, standardizing its other variables apart.
func alignHead(d *query.CQ, head []string, idx int) (*query.CQ, error) {
	if len(d.Head) != len(head) {
		return nil, fmt.Errorf("core: disjunct arity %d vs %d", len(d.Head), len(head))
	}
	sub := make(query.Subst)
	for v := range d.BodyVars() {
		sub[v] = query.Var(fmt.Sprintf("%s_d%d", v, idx))
	}
	for i, t := range d.Head {
		if !t.IsVar() {
			return nil, fmt.Errorf("core: constant in UCQ disjunct head (align before analyzing)")
		}
		sub[t.Name()] = query.Var(head[i])
	}
	return d.Rename(sub), nil
}

// ExecUCQ evaluates the union under a fixed binding of a controlling set
// of the union: the bounded union of the disjuncts' bounded answers. It
// is a full drain of StreamUCQ with no per-call stats, so it is
// uncounted.
func ExecUCQ(st store.Backend, res *UCQResult, x query.Bindings) (*relation.TupleSet, error) {
	seq, err := StreamUCQ(context.Background(), st, res, x, nil)
	if err != nil {
		return nil, err
	}
	out := relation.NewTupleSet(0)
	for t, err := range seq {
		if err != nil {
			return nil, err
		}
		out.Add(t)
	}
	return out, nil
}

// StreamUCQ opens a lazy answer stream over the union: each disjunct's
// derivation is compiled to its physical operator plan (analysis order,
// routing resolved against st), the plans' cursors run in sequence, and
// their answers are deduplicated on the fly across disjuncts, so the
// union's answer set streams out without materializing any disjunct —
// and an early-terminating consumer never opens the cursors of later
// disjuncts at all. Work is charged to es (nil leaves it uncounted). The resulting tuple set and, for a full
// drain, the charged TupleReads are identical to ExecUCQ's:
// deduplication is at answer level and every disjunct's plan still runs
// in full once pulled.
func StreamUCQ(ctx context.Context, st store.Backend, res *UCQResult, x query.Bindings, es *store.ExecStats) (tupleSeq, error) {
	derivs := res.Controls(x.Vars())
	if derivs == nil {
		return nil, fmt.Errorf("core: %w: union not %s-controlled", ErrNotControllable, x.Vars())
	}
	roots := make([]plan.Node, len(derivs))
	for i, d := range derivs {
		roots[i] = Compile(d)
		plan.ResolveRoutes(roots[i], st)
	}
	rt := plan.BackendRuntime{Ctx: ctx, B: st, Es: es}
	// Chain the disjunct cursors into one binding stream; projectSeq then
	// applies the same head projection and streaming tuple-level dedup the
	// prepared-query cursor uses — here the dedup spans disjuncts, and x
	// serves as the fallback for head variables the disjunct's plan did
	// not re-derive.
	union := func(yield func(query.Bindings, error) bool) {
		for _, root := range roots {
			for b, err := range root.Stream(rt, x) {
				if err != nil {
					yield(nil, err)
					return
				}
				if !yield(b, nil) {
					return
				}
			}
		}
	}
	return projectSeq(union, res.Head, x, "the union"), nil
}
