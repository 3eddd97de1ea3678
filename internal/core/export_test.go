package core

// Test-only exports for the external core_test package.

// RandomSocialCQ is randomSocialCQ for the analysis golden test.
var RandomSocialCQ = randomSocialCQ

// CompilePlan is compilePlan for the rewrite-pricing test.
var CompilePlan = compilePlan
