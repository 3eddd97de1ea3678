package main

import (
	"repro/internal/relation"
)

// oracle answers the query pack from hash maps built over a snapshot of
// the data, sharing no code with the engine, its plans or its indexes. The
// repo's reference evaluator (eval.Answers) is the ground truth but takes
// seconds per Q2/Q3 call at |D| ≈ 150k, so it cannot run inside a timed
// command; oracle_test.go pins this oracle to it on a small instance.
type oracle struct {
	friends   map[int64][]int64 // id1 → id2s
	followers map[int64][]int64 // id2 → id1s
	person    map[int64]personRow
	visits    map[int64][]visitRow
	restr     map[int64]restrRow
}

type personRow struct{ name, city string }
type visitRow struct{ rid, yy int64 }
type restrRow struct{ name, city, rating string }

func newOracle(db *relation.Database) *oracle {
	o := &oracle{
		friends:   map[int64][]int64{},
		followers: map[int64][]int64{},
		person:    map[int64]personRow{},
		visits:    map[int64][]visitRow{},
		restr:     map[int64]restrRow{},
	}
	for _, t := range db.Rel("friend").Tuples() {
		a, b := t[0].AsInt(), t[1].AsInt()
		o.friends[a] = append(o.friends[a], b)
		o.followers[b] = append(o.followers[b], a)
	}
	for _, t := range db.Rel("person").Tuples() {
		o.person[t[0].AsInt()] = personRow{t[1].AsString(), t[2].AsString()}
	}
	for _, t := range db.Rel("visit").Tuples() {
		id := t[0].AsInt()
		o.visits[id] = append(o.visits[id], visitRow{t[1].AsInt(), t[2].AsInt()})
	}
	for _, t := range db.Rel("restr").Tuples() {
		o.restr[t[0].AsInt()] = restrRow{t[1].AsString(), t[2].AsString(), t[3].AsString()}
	}
	return o
}

func (o *oracle) inNYC(id int64) bool {
	p, ok := o.person[id]
	return ok && p.city == "NYC"
}

// answers evaluates op's query with its controlling variables fixed; the
// result is over the remaining head, as Rows and Answer report it.
func (o *oracle) answers(op readOp) *relation.TupleSet {
	out := relation.NewTupleSet(0)
	// restaurants visited by id, filtered by keep, as restaurant names
	visited := func(id int64, keep func(v visitRow, r restrRow) bool) {
		for _, v := range o.visits[id] {
			if r, ok := o.restr[v.rid]; ok && keep(v, r) {
				out.Add(relation.NewTuple(relation.Str(r.name)))
			}
		}
	}
	nycA := func(r restrRow) bool { return r.city == "NYC" && r.rating == "A" }
	switch op.q {
	case q1:
		for _, f := range o.friends[op.p] {
			if o.inNYC(f) {
				out.Add(relation.NewTuple(relation.Str(o.person[f].name)))
			}
		}
	case q2, q3:
		for _, f := range o.friends[op.p] {
			if o.inNYC(f) {
				visited(f, func(v visitRow, r restrRow) bool {
					return nycA(r) && (op.q == q2 || v.yy == op.yy)
				})
			}
		}
	case q4:
		visited(op.p, func(visitRow, restrRow) bool { return true })
	case q5:
		for _, f := range o.friends[op.p] {
			if !o.inNYC(f) {
				visited(f, func(visitRow, restrRow) bool { return true })
			}
		}
	case q6:
		for _, f := range o.followers[op.p] {
			if p, ok := o.person[f]; ok {
				out.Add(relation.NewTuple(relation.Str(p.name)))
			}
		}
	case q7:
		if o.inNYC(op.p) {
			for _, v := range o.visits[op.p] {
				out.Add(relation.NewTuple(relation.Int(v.rid)))
			}
		}
	}
	return out
}

// vnyc and vfol are the extents the two materialized views must hold.
func (o *oracle) vnyc() *relation.TupleSet {
	out := relation.NewTupleSet(0)
	for id, vs := range o.visits {
		if o.inNYC(id) {
			for _, v := range vs {
				out.Add(relation.Ints(id, v.rid))
			}
		}
	}
	return out
}

func (o *oracle) vfol() *relation.TupleSet {
	out := relation.NewTupleSet(0)
	for p, fs := range o.followers {
		for _, f := range fs {
			out.Add(relation.Ints(p, f))
		}
	}
	return out
}
