// Package offline is outside the serving set (plan/eval/core), so the
// charging discipline does not apply: raw reads here stay silent, and so
// do the naive evaluator's full scans (the paper's baselines and oracles).
package offline

import (
	"ct/internal/eval"
	"ct/internal/relation"
)

func Dump(r *relation.Relation) int { return len(r.Tuples()) }

func Baseline() []relation.Tuple { return eval.Answers(eval.NewStoreSource()) }
