package backendtest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/parser"
)

// genViewSrc draws one view definition over the social schema: a star of
// one to three atoms around the person variable a — friend(a, b),
// friend(b, a), person(a, n, city), visit(a, r, yy, mm, dd) — with a
// restr(r, …) atom hung off a visit now and then, city and rating
// constants on some person and restr atoms, and a head of a plus a random
// choice of the other variables. Many draws are not incrementally
// maintainable (CreateView refuses them); CreateGenViews skips those.
func genViewSrc(rng *rand.Rand, name string) string {
	cities := []string{"'NYC'", "'LA'"}
	var atoms []string
	var rest []string // non-head-mandatory variables, in body order
	kinds := rng.Perm(4)[:1+rng.Intn(3)]
	hasVisit := false
	for _, k := range kinds {
		switch k {
		case 0:
			atoms = append(atoms, "friend(a, b)")
			rest = append(rest, "b")
		case 1:
			atoms = append(atoms, "friend(b2, a)")
			rest = append(rest, "b2")
		case 2:
			if rng.Intn(2) == 0 {
				atoms = append(atoms, fmt.Sprintf("person(a, n, %s)", cities[rng.Intn(len(cities))]))
			} else {
				atoms = append(atoms, "person(a, n, c)")
				rest = append(rest, "c")
			}
			rest = append(rest, "n")
		case 3:
			atoms = append(atoms, "visit(a, r, yy, mm, dd)")
			rest = append(rest, "r", "yy")
			hasVisit = true
		}
	}
	if hasVisit && rng.Intn(3) == 0 {
		atoms = append(atoms, fmt.Sprintf("restr(r, rn, %s, 'A')", cities[rng.Intn(len(cities))]))
		rest = append(rest, "rn")
	}
	head := []string{"a"}
	for _, v := range rest {
		if rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	return fmt.Sprintf("%s(%s) :- %s", name, strings.Join(head, ", "), strings.Join(atoms, ", "))
}

// CreateGenViews registers n generated views (VG0, VG1, …) on eng, drawn
// from a generator seeded with seed, and returns their definitions. Draws
// the engine refuses (not maintainable, a repeated definition) are
// skipped, so on engines over the same access schema the same seed
// registers the same views.
func CreateGenViews(eng *core.Engine, n int, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	seen := make(map[string]bool)
	for try := 0; len(out) < n; try++ {
		if try == 1000 {
			return out, fmt.Errorf("backendtest: only %d of %d generated views registered", len(out), n)
		}
		name := fmt.Sprintf("VG%d", len(out))
		src := genViewSrc(rng, name)
		body := src[strings.Index(src, "("):]
		if seen[body] {
			continue
		}
		seen[body] = true
		def, err := parser.ParseCQ(src)
		if err != nil {
			return out, err
		}
		if _, err := eng.CreateView(def); err != nil {
			continue
		}
		out = append(out, src)
	}
	return out, nil
}
