package main

import (
	"math/rand"
	"testing"

	"repro/internal/backendtest"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// referenceQ5 answers Q5 with the reference evaluator's conjunctive path.
// Q5 has a negation, which sends eval.Answers to enumerating assignments
// over the active domain (eight variables: hopeless even here); it is the
// positive join minus the friends who are NYC persons, and both halves are
// conjunctive.
func referenceQ5(t *testing.T, db *relation.Database, op readOp) *relation.TupleSet {
	t.Helper()
	parse := func(src string) *query.CQ {
		cq, err := parser.ParseCQ(src)
		if err != nil {
			t.Fatal(err)
		}
		return cq
	}
	visited, err := eval.AnswersCQ(eval.DBSource{DB: db},
		parse("A(p, f, rn) :- friend(p, f), visit(f, rid, yy, mm, dd), restr(rid, rn, city, rating)"), op.bindings())
	if err != nil {
		t.Fatal(err)
	}
	nyc, err := eval.AnswersCQ(eval.DBSource{DB: db}, parse("B(f, fn) :- person(f, fn, 'NYC')"), nil)
	if err != nil {
		t.Fatal(err)
	}
	inNYC := map[int64]bool{}
	for _, row := range nyc.Tuples() {
		inNYC[row[0].AsInt()] = true
	}
	want := relation.NewTupleSet(0)
	for _, row := range visited.Tuples() { // (p, f, rn): AnswersCQ keeps the whole head
		if !inNYC[row[1].AsInt()] {
			want.Add(relation.NewTuple(row[2]))
		}
	}
	return want
}

// TestOracleAgreesWithReferenceEvaluator pins the hash-map oracle the
// command checks answers with to eval.Answers, the repo's ground truth, on
// an instance small enough for the reference evaluator, before and after a
// stretch of the mixed commit stream.
func TestOracleAgreesWithReferenceEvaluator(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 120
	cfg.Seed = 5
	db, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		o := newOracle(db)
		rng := rand.New(rand.NewSource(9))
		for q := range queryPack {
			parsed, err := parseServing(queryPack[q].src)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 25; i++ {
				op := readOp{q: uint8(q), p: int64(rng.Intn(cfg.Persons)), yy: int64(cfg.Years[rng.Intn(len(cfg.Years))])}
				var want *relation.TupleSet
				if q == q5 {
					want = referenceQ5(t, db, op)
				} else if want, err = eval.Answers(eval.DBSource{DB: db}, parsed, op.bindings()); err != nil {
					t.Fatal(err)
				}
				if got := o.answers(op); !got.Equal(want) {
					t.Fatalf("%s: %s p=%d yy=%d: oracle %v, reference evaluator %v", stage, queryPack[q].name, op.p, op.yy, got.Tuples(), want.Tuples())
				}
			}
		}
		for name, src := range map[string]string{"VNYC": backendtest.VNYCSrc, "VFol": backendtest.VFolSrc} {
			def, err := parser.ParseCQ(src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eval.AnswersCQ(eval.DBSource{DB: db}, def, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]*relation.TupleSet{"VNYC": o.vnyc(), "VFol": o.vfol()}[name]
			if !got.Equal(want) {
				t.Fatalf("%s: view %s: oracle has %d rows, reference evaluator %d", stage, name, got.Len(), want.Len())
			}
		}
	}
	check("initial")
	for _, u := range workload.MixedCommits(db, cfg, 150, []int64{3, 17, 40}, 6) {
		if err := db.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	check("after 150 commits")
}
