// Package qdsi implements the definition-level decision problems of
// Sections 3 and 5 of the paper:
//
//   - QDSI(L): given a query Q ∈ L, a database D and a bound M, is there a
//     witness D_Q ⊆ D with |D_Q| ≤ M and Q(D_Q) = Q(D)?
//   - QSI(L): is Q scale-independent w.r.t. M in *every* database?
//   - ∆QSI (Theorems 5.1/5.2): for each candidate update ∆D, does some
//     D_Q ⊆ D with |D_Q| ≤ M compute the exact answer delta? Decided by
//     subset search on small instances (DecideDeltaQSI); the constructive
//     side — bounded maintenance — is the engine's Watch + Commit path.
//
// The complexity results of Table 1 shape the implementations:
//
//   - For CQ/UCQ (monotone), Q(D′) ⊆ Q(D) for any D′ ⊆ D, so a witness must
//     preserve every answer, and each answer is preserved exactly when the
//     witness contains a homomorphism image of it (≤ ‖Q‖ tuples). QDSI is
//     therefore a minimum set-cover over homomorphism images — mirroring
//     the paper's NP-hardness reduction from set covering (Theorem 3.3) —
//     solved here by branch-and-bound with a greedy upper bound.
//   - Boolean CQs are O(1) when ‖Q‖ ≤ M (Corollary 3.2): a true sentence is
//     witnessed by any single homomorphism image, a false one by ∅.
//   - For FO (non-monotone: deleting tuples can create answers), the
//     decider enumerates subsets of D of size ≤ M and runs the witness
//     check, with an explicit work budget; for fixed M this is the
//     polynomial algorithm of Proposition 3.4.
//   - QSI for CQ is decided by the monotonicity/triviality analysis of
//     Proposition 3.5's discussion; QSI for FO is undecidable, which is
//     reproduced as... a function that refuses (see QSIFO).
package qdsi

import (
	"errors"
	"fmt"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/relation"
)

// Options bounds the work of the exponential deciders.
type Options struct {
	// MaxChecks caps the number of witness checks / search nodes. 0 means
	// DefaultMaxChecks.
	MaxChecks int64
	// MaxImagesPerAnswer caps homomorphism image enumeration per answer.
	// 0 means DefaultMaxImages.
	MaxImagesPerAnswer int
}

// Default work limits.
const (
	DefaultMaxChecks = 2_000_000
	DefaultMaxImages = 64
)

func (o Options) maxChecks() int64 {
	if o.MaxChecks <= 0 {
		return DefaultMaxChecks
	}
	return o.MaxChecks
}

func (o Options) maxImages() int {
	if o.MaxImagesPerAnswer <= 0 {
		return DefaultMaxImages
	}
	return o.MaxImagesPerAnswer
}

// ErrBudget is returned when a decider exhausts its work limit without a
// definite answer.
var ErrBudget = errors.New("qdsi: work budget exhausted before a definite answer")

// Decision is the outcome of a QDSI question.
type Decision struct {
	// InSQ reports Q ∈ SQ_L(D, M): a witness of size ≤ M exists.
	InSQ bool
	// Witness is a witness database of minimum size found (nil when InSQ
	// is false).
	Witness *relation.Database
	// WitnessSize is |Witness| (or the proven lower bound when InSQ is
	// false and the search was exact).
	WitnessSize int
	// Checks counts the work performed.
	Checks int64
}

// WitnessCheck decides the witness problem (proof of Theorem 3.1): given
// D′ ⊆ D, does Q(D′) = Q(D)? Subset-ness is the caller's responsibility.
func WitnessCheck(q *query.Query, d, dprime *relation.Database) (bool, error) {
	full, err := eval.Answers(eval.DBSource{DB: d}, q, nil)
	if err != nil {
		return false, err
	}
	sub, err := eval.Answers(eval.DBSource{DB: dprime}, q, nil)
	if err != nil {
		return false, err
	}
	return full.Equal(sub), nil
}

// taggedTuple identifies a tuple within a database.
type taggedTuple struct {
	rel string
	t   relation.Tuple
}

func (tt taggedTuple) key() string { return tt.rel + "\x00" + tt.t.Key() }

// allTuples flattens D into a deterministic list.
func allTuples(d *relation.Database) []taggedTuple {
	var out []taggedTuple
	for _, name := range d.Schema().Names() {
		for _, t := range d.Rel(name).Tuples() {
			out = append(out, taggedTuple{rel: name, t: t})
		}
	}
	return out
}

// buildWitness materializes a subset of tagged tuples as a database.
func buildWitness(schema *relation.Schema, chosen map[string]taggedTuple) *relation.Database {
	db := relation.NewDatabase(schema)
	for _, tt := range chosen {
		db.MustInsert(tt.rel, tt.t)
	}
	return db
}

// DecideCQ decides QDSI for a data-selecting CQ on D w.r.t. M, by exact
// branch-and-bound set cover over homomorphism images. The returned
// decision carries the minimum witness when one within M exists.
func DecideCQ(q *query.CQ, d *relation.Database, m int, opt Options) (*Decision, error) {
	u := &query.UCQ{Name: q.Name, Disjunct: []*query.CQ{q}}
	return DecideUCQ(u, d, m, opt)
}

// DecideUCQ decides QDSI for a UCQ (covering CQ as the one-disjunct case).
func DecideUCQ(u *query.UCQ, d *relation.Database, m int, opt Options) (*Decision, error) {
	answers, err := eval.AnswersUCQ(eval.DBSource{DB: d}, u, nil)
	if err != nil {
		return nil, err
	}
	dec := &Decision{}
	if answers.Len() == 0 {
		// Monotone: any subset has no answers either; ∅ witnesses.
		dec.InSQ = true
		dec.Witness = relation.NewDatabase(d.Schema())
		return dec, nil
	}
	// Enumerate homomorphism images per answer across disjuncts.
	images := make(map[string][][]taggedTuple) // answer key -> images
	order := make([]string, 0, answers.Len())
	for _, ans := range answers.Tuples() {
		order = append(order, ans.Key())
	}
	for _, disj := range u.Disjunct {
		err := cq.HomomorphismImages(d, disj, func(ans relation.Tuple, image map[string][]relation.Tuple) bool {
			k := ans.Key()
			if len(images[k]) >= opt.maxImages() {
				return true
			}
			var img []taggedTuple
			for rel, ts := range image {
				for _, t := range ts {
					img = append(img, taggedTuple{rel: rel, t: t})
				}
			}
			images[k] = append(images[k], dedupImage(img))
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	for _, k := range order {
		if len(images[k]) == 0 {
			return nil, fmt.Errorf("qdsi: answer without homomorphism image (internal error)")
		}
	}
	// Greedy upper bound, then exact branch and bound.
	solver := &coverSolver{
		answers:   order,
		images:    images,
		maxChecks: opt.maxChecks(),
	}
	best, err := solver.solve()
	if err != nil {
		return nil, err
	}
	dec.Checks = solver.checks
	dec.WitnessSize = len(best)
	if len(best) <= m {
		dec.InSQ = true
		dec.Witness = buildWitness(d.Schema(), best)
	}
	return dec, nil
}

func dedupImage(img []taggedTuple) []taggedTuple {
	seen := make(map[string]bool, len(img))
	out := img[:0:0]
	for _, tt := range img {
		k := tt.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, tt)
		}
	}
	return out
}

// coverSolver finds a minimum-cardinality set of tuples containing at
// least one image of every answer.
type coverSolver struct {
	answers   []string
	images    map[string][][]taggedTuple
	maxChecks int64
	checks    int64

	best map[string]taggedTuple
}

func (s *coverSolver) solve() (map[string]taggedTuple, error) {
	// Greedy: repeatedly take the image that adds the fewest new tuples.
	greedy := make(map[string]taggedTuple)
	for _, a := range s.answers {
		if s.coveredBy(a, greedy) {
			continue
		}
		bestImg, bestAdd := -1, 1<<30
		for i, img := range s.images[a] {
			add := 0
			for _, tt := range img {
				if _, ok := greedy[tt.key()]; !ok {
					add++
				}
			}
			if add < bestAdd {
				bestImg, bestAdd = i, add
			}
		}
		for _, tt := range s.images[a][bestImg] {
			greedy[tt.key()] = tt
		}
	}
	s.best = greedy
	// Exact search.
	if err := s.dfs(0, make(map[string]taggedTuple), make(map[string]int)); err != nil {
		return nil, err
	}
	return s.best, nil
}

func (s *coverSolver) coveredBy(answer string, chosen map[string]taggedTuple) bool {
	for _, img := range s.images[answer] {
		ok := true
		for _, tt := range img {
			if _, in := chosen[tt.key()]; !in {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// dfs covers answers in order; refs counts how many times each tuple key
// has been added so backtracking can remove cleanly.
func (s *coverSolver) dfs(i int, chosen map[string]taggedTuple, refs map[string]int) error {
	s.checks++
	if s.checks > s.maxChecks {
		return ErrBudget
	}
	if len(chosen) >= len(s.best) {
		return nil // prune: cannot improve
	}
	// Skip answers already covered.
	for i < len(s.answers) && s.coveredBy(s.answers[i], chosen) {
		i++
	}
	if i == len(s.answers) {
		if len(chosen) < len(s.best) {
			cp := make(map[string]taggedTuple, len(chosen))
			for k, v := range chosen {
				cp[k] = v
			}
			s.best = cp
		}
		return nil
	}
	for _, img := range s.images[s.answers[i]] {
		var added []string
		for _, tt := range img {
			k := tt.key()
			refs[k]++
			if refs[k] == 1 {
				chosen[k] = tt
				added = append(added, k)
			}
		}
		if err := s.dfs(i+1, chosen, refs); err != nil {
			return err
		}
		for _, tt := range img {
			refs[tt.key()]--
		}
		for _, k := range added {
			delete(chosen, k)
		}
	}
	return nil
}

// DecideBooleanCQ decides QDSI for a Boolean CQ: O(1) in the data when
// ‖Q‖ ≤ M (Corollary 3.2). If Q(D) is false the empty witness works; if
// true, the smallest homomorphism image works and its size is ≤ ‖Q‖.
func DecideBooleanCQ(q *query.CQ, d *relation.Database, m int) (*Decision, error) {
	if len(q.Head) != 0 {
		return nil, fmt.Errorf("qdsi: %s is not Boolean", q.Name)
	}
	dec := &Decision{}
	found := false
	var smallest []taggedTuple
	err := cq.HomomorphismImages(d, q, func(_ relation.Tuple, image map[string][]relation.Tuple) bool {
		found = true
		var img []taggedTuple
		for rel, ts := range image {
			for _, t := range ts {
				img = append(img, taggedTuple{rel: rel, t: t})
			}
		}
		img = dedupImage(img)
		if smallest == nil || len(img) < len(smallest) {
			smallest = img
		}
		// Any image has ≤ ‖Q‖ tuples, so when ‖Q‖ ≤ M the first image
		// already decides positively — this early stop is the O(1) bound
		// of Corollary 3.2. Only when M < ‖Q‖ does the search continue,
		// hoping for an image that collapses below M.
		return len(smallest) > m
	})
	if err != nil {
		return nil, err
	}
	if !found {
		dec.InSQ = true // ∅ witnesses falsity (monotonicity)
		dec.Witness = relation.NewDatabase(d.Schema())
		return dec, nil
	}
	dec.WitnessSize = len(smallest)
	if len(smallest) <= m {
		chosen := make(map[string]taggedTuple, len(smallest))
		for _, tt := range smallest {
			chosen[tt.key()] = tt
		}
		dec.InSQ = true
		dec.Witness = buildWitness(d.Schema(), chosen)
	}
	return dec, nil
}

// DecideFO decides QDSI for an arbitrary FO query by exhaustive subset
// search: subsets of D of size 0, 1, ..., M are tested with the witness
// check. For fixed M the loop is polynomial in |D| (Proposition 3.4); in
// general it is exponential, so a work budget applies and ErrBudget is
// returned when exceeded.
func DecideFO(q *query.Query, d *relation.Database, m int, opt Options) (*Decision, error) {
	full, err := eval.Answers(eval.DBSource{DB: d}, q, nil)
	if err != nil {
		return nil, err
	}
	tuples := allTuples(d)
	if m > len(tuples) {
		m = len(tuples)
	}
	dec := &Decision{}
	budget := opt.maxChecks()
	for size := 0; size <= m; size++ {
		foundWitness := false
		var witness *relation.Database
		err := forEachSubset(len(tuples), size, func(idx []int) (bool, error) {
			dec.Checks++
			if dec.Checks > budget {
				return false, ErrBudget
			}
			db := relation.NewDatabase(d.Schema())
			for _, i := range idx {
				db.MustInsert(tuples[i].rel, tuples[i].t)
			}
			sub, err := eval.Answers(eval.DBSource{DB: db}, q, nil)
			if err != nil {
				return false, err
			}
			if sub.Equal(full) {
				foundWitness = true
				witness = db
				return false, nil
			}
			return true, nil
		})
		if err != nil {
			return dec, err
		}
		if foundWitness {
			dec.InSQ = true
			dec.Witness = witness
			dec.WitnessSize = size
			return dec, nil
		}
	}
	dec.WitnessSize = m + 1 // proven lower bound
	return dec, nil
}

// MinimalWitnessFO finds the size of the smallest witness for an FO query
// (the least M for which Q ∈ SQ(D, M)); used to demonstrate queries that
// fully use their input (Proposition 3.6).
func MinimalWitnessFO(q *query.Query, d *relation.Database, opt Options) (int, error) {
	dec, err := DecideFO(q, d, d.Size(), opt)
	if err != nil {
		return 0, err
	}
	if !dec.InSQ {
		return 0, fmt.Errorf("qdsi: no witness at size |D| (impossible: D witnesses itself)")
	}
	return dec.WitnessSize, nil
}

// DecideDeltaQSI decides the ∆QSI question of Section 5 (Theorems 5.1/5.2)
// on a concrete instance: for every update in candidates (each of size ≤ k
// by the caller's choice), does some D_Q ⊆ D with |D_Q| ≤ M compute the
// exact answer delta? The maintenance semantics is the canonical one:
// ∆Q(∆D, D_Q) is the delta of Q between D_Q and D_Q ⊕ ∆D. Exponential in
// |D|, so the work budget of opt applies and ErrBudget is returned when
// it is exceeded.
func DecideDeltaQSI(q *query.Query, d *relation.Database, candidates []*relation.Update, m int, opt Options) (bool, int64, error) {
	oldAnswers, err := eval.Answers(eval.DBSource{DB: d}, q, nil)
	if err != nil {
		return false, 0, err
	}
	var checks int64
	budget := opt.maxChecks()
	tuples := allTuples(d)
	m = min(m, len(tuples))
	for _, u := range candidates {
		newDB, err := d.Applied(u)
		if err != nil {
			return false, checks, err
		}
		target, err := eval.Answers(eval.DBSource{DB: newDB}, q, nil)
		if err != nil {
			return false, checks, err
		}
		found := false
		for size := 0; size <= m && !found; size++ {
			err := forEachSubset(len(tuples), size, func(idx []int) (bool, error) {
				checks++
				if checks > budget {
					return false, ErrBudget
				}
				dq := relation.NewDatabase(d.Schema())
				for _, i := range idx {
					dq.MustInsert(tuples[i].rel, tuples[i].t)
				}
				ok, err := deltaWitnesses(q, dq, u, oldAnswers, target)
				found = ok
				return !ok, err
			})
			if err != nil {
				return false, checks, err
			}
		}
		if !found {
			return false, checks, nil
		}
	}
	return true, checks, nil
}

// deltaWitnesses checks whether the delta computed from (D_Q, ∆D) turns
// the old answers into the target answers.
func deltaWitnesses(q *query.Query, dq *relation.Database, u *relation.Update, oldAnswers, target *relation.TupleSet) (bool, error) {
	before, err := eval.Answers(eval.DBSource{DB: dq}, q, nil)
	if err != nil {
		return false, err
	}
	dqNew := dq.Clone()
	if err := applyLoose(dqNew, u); err != nil {
		return false, err
	}
	after, err := eval.Answers(eval.DBSource{DB: dqNew}, q, nil)
	if err != nil {
		return false, err
	}
	// ∆ = after − before, ∇ = before − after; apply to the old answers.
	result := oldAnswers.Clone()
	for _, t := range before.Tuples() {
		if !after.Contains(t) {
			result.Remove(t)
		}
	}
	for _, t := range after.Tuples() {
		if !before.Contains(t) {
			result.Add(t)
		}
	}
	return result.Equal(target), nil
}

// applyLoose applies an update ignoring deletions of absent tuples and
// insertions of present ones (D_Q is a subset of D).
func applyLoose(db *relation.Database, u *relation.Update) error {
	for rel, ts := range u.Del {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("qdsi: unknown relation %q", rel)
		}
		for _, t := range ts {
			r.Delete(t)
		}
	}
	for rel, ts := range u.Ins {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("qdsi: unknown relation %q", rel)
		}
		for _, t := range ts {
			if !r.Contains(t) {
				if _, err := r.Insert(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SingleTupleUpdates enumerates candidate single-tuple updates for
// DecideDeltaQSI: one insertion per tuple in pool absent from D and one
// deletion per tuple of D.
func SingleTupleUpdates(d *relation.Database, pool map[string][]relation.Tuple) []*relation.Update {
	var out []*relation.Update
	for rel, ts := range pool {
		r := d.Rel(rel)
		if r == nil {
			continue
		}
		for _, t := range ts {
			if !r.Contains(t) {
				out = append(out, relation.NewUpdate().Insert(rel, t))
			}
		}
	}
	for _, tt := range allTuples(d) {
		out = append(out, relation.NewUpdate().Delete(tt.rel, tt.t))
	}
	return out
}

// forEachSubset enumerates index subsets of {0..n-1} of exactly size k.
// The callback returns (continue, error).
func forEachSubset(n, k int, yield func([]int) (bool, error)) error {
	idx := make([]int, k)
	var rec func(start, d int) (bool, error)
	rec = func(start, d int) (bool, error) {
		if d == k {
			return yield(idx)
		}
		for i := start; i <= n-(k-d); i++ {
			idx[d] = i
			cont, err := rec(i+1, d+1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0, 0)
	return err
}

// QSIClass classifies a CQ for the QSI problem.
type QSIClass struct {
	// ScaleIndependent reports Q ∈ SQ_{CQ,R}(M) for all M ≥ MinM.
	ScaleIndependent bool
	// MinM is the least M that works when ScaleIndependent (‖Q‖ for
	// satisfiable trivial queries, 0 for unsatisfiable ones).
	MinM int
	// Reason explains the classification.
	Reason string
}

// QSICQ decides QSI for a conjunctive query over all databases (no
// constraints): by monotonicity the answer is "no" for every M unless the
// query is trivial — unsatisfiable, or with no variables in the head
// (Boolean or constant-returning), in which case ‖Q‖ tuples witness any
// database (Corollary 3.2 and the discussion after Proposition 3.5).
func QSICQ(q *query.CQ) *QSIClass {
	applied, sat := q.ApplyEqs()
	if !sat {
		return &QSIClass{ScaleIndependent: true, MinM: 0,
			Reason: "unsatisfiable: Q(D) = ∅ for every D; the empty witness always works"}
	}
	headVars := applied.HeadVars()
	if headVars.Len() == 0 {
		return &QSIClass{ScaleIndependent: true, MinM: applied.Size(),
			Reason: "no head variables: a single homomorphism image (≤ ‖Q‖ tuples) witnesses truth, ∅ witnesses falsity"}
	}
	return &QSIClass{ScaleIndependent: false,
		Reason: "monotone and non-trivial: databases with arbitrarily many answers force unboundedly large witnesses"}
}

// ErrUndecidable is returned by QSIFO: the problem is undecidable for FO
// (Proposition 3.5) — the set SQ_{FO,R}(M) is not even recursively
// enumerable, so no decision procedure is offered.
var ErrUndecidable = errors.New("qdsi: QSI for FO is undecidable (Proposition 3.5); use DecideFO on concrete databases instead")

// QSIFO documents the undecidability of QSI(FO).
func QSIFO(*query.Query, int) error { return ErrUndecidable }
