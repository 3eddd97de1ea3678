package core

import "repro/internal/store"

// Test-only exports for the external core_test package.

// RandomSocialCQ is randomSocialCQ for the analysis golden test.
var RandomSocialCQ = randomSocialCQ

// CompilePlan is compilePlan of a prepared plan, for the rewrite-pricing
// test.
func CompilePlan(d *Derivation, b store.Backend, mode OptimizerMode) *Plan {
	return compilePlan(d, b, mode, nil)
}
