package core_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// viewPlanGoldenPath holds the prepared plans TestViewPlanGolden pins. On
// a mismatch the test writes what it computed next to it with a .got
// suffix; review the difference and move it over the golden to accept it.
var viewPlanGoldenPath = filepath.Join("testdata", "viewplan.golden")

// TestViewPlanGolden pins plan selection among base plans and view
// rewritings byte for byte: the EXPLAIN of Prepare (or its error) for
// Q1–Q7 under the view sets {none, VFol, VNYC, both, eight generated
// views}, each for its serving controlling set and every minimal
// controlling set of its base analysis, and for 150 seeded random CQs
// spread over the same view sets.
func TestViewPlanGolden(t *testing.T) {
	checkGolden(t, viewPlanGoldenPath, viewPlanGolden(t))
}

func viewPlanGolden(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	newEngine := func() *core.Engine {
		data, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(data, workload.Access(cfg))
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(st)
		eng.SetPlanCacheSize(0)
		return eng
	}
	vfol, vnyc := goldenCQ(t, backendtest.VFolSrc), goldenCQ(t, backendtest.VNYCSrc)
	addFol := func(eng *core.Engine) {
		if _, err := eng.CreateView(vfol, access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
			t.Fatal(err)
		}
	}
	addNYC := func(eng *core.Engine) {
		if _, err := eng.CreateView(vnyc); err != nil {
			t.Fatal(err)
		}
	}
	sets := []struct {
		name  string
		setup func(*core.Engine)
	}{
		{"none", func(*core.Engine) {}},
		{"VFol", addFol},
		{"VNYC", addNYC},
		{"both", func(eng *core.Engine) { addFol(eng); addNYC(eng) }},
		{"gen8", func(eng *core.Engine) {
			if _, err := backendtest.CreateGenViews(eng, 8, 39); err != nil {
				t.Fatal(err)
			}
		}},
	}
	engines := make([]*core.Engine, len(sets))
	for i, s := range sets {
		engines[i] = newEngine()
		s.setup(engines[i])
	}
	base := engines[0].An

	var b strings.Builder
	for _, v := range engines[4].Views() {
		fmt.Fprintf(&b, "== gen8 view %s: %s\n", v.Name, v.Def)
	}
	// prepare emits the plan of q on engine i for each controlling set.
	prepare := func(i int, name string, q *query.Query, ctrls []query.VarSet) {
		for _, x := range ctrls {
			fmt.Fprintf(&b, "== %s %s %s: %s\n", sets[i].name, name, x, q)
			p, err := engines[i].Prepare(q, x)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			b.WriteString(p.Explain())
		}
	}
	// ctrlSets is first the given set, then every minimal controlling set
	// of q's base analysis (at most four) not equal to it.
	ctrlSets := func(q *query.Query, first query.VarSet) []query.VarSet {
		out := []query.VarSet{first}
		res, err := base.AnalyzeQuery(q)
		if err != nil {
			return out
		}
		for _, s := range res.Family() {
			if len(out) == 5 {
				break
			}
			if !s.Equal(first) {
				out = append(out, s)
			}
		}
		return out
	}

	serving := []struct {
		name, src string
		ctrl      query.VarSet
	}{
		{"Q1", workload.Q1Src, query.NewVarSet("p")},
		{"Q2", workload.Q2Src, query.NewVarSet("p")},
		{"Q3", workload.Q3Src, query.NewVarSet("p", "yy")},
		{"Q4", backendtest.Q4Src, query.NewVarSet("p")},
		{"Q5", backendtest.Q5Src, query.NewVarSet("p")},
		{"Q6", backendtest.Q6Src, query.NewVarSet("p")},
		{"Q7", backendtest.Q7Src, query.NewVarSet("p")},
	}
	for _, s := range serving {
		q := goldenQuery(t, s.src)
		ctrls := ctrlSets(q, s.ctrl)
		for i := range engines {
			prepare(i, s.name, q, ctrls)
		}
	}
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 150; i++ {
		q := goldenQuery(t, core.RandomSocialCQ(rng))
		prepare(i%len(engines), fmt.Sprintf("CQ%d", i), q, ctrlSets(q, query.NewVarSet("p")))
	}
	return b.String()
}
