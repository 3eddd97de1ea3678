// Package workload generates the synthetic social-graph substrate that
// stands in for the paper's motivating dataset (Facebook Graph Search,
// Example 1.1). The generator reproduces exactly the structural properties
// the theory depends on:
//
//   - a hard cap on friends per person (the paper's 5000; configurable),
//   - key attributes person.id and restr.rid,
//   - the calendar bound (≤ 366 (mm, dd) pairs per year) and the FD
//     id, yy, mm, dd → rid of Example 4.6 (one restaurant per person per
//     day),
//
// so every generated database conforms to the corresponding access schema
// by construction (and the tests check it).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/access"
	"repro/internal/relation"
)

// Config parameterizes the generator. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Persons     int
	MaxFriends  int // hard cap per person (paper: 5000)
	AvgFriends  int // expected friends per person (≤ MaxFriends)
	Restaurants int
	// VisitsPerPerson is the number of dated visits per person; dates are
	// distinct per person so the FD id,yy,mm,dd → rid holds.
	VisitsPerPerson int
	Cities          []string
	Years           []int
	Seed            int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Persons:         1000,
		MaxFriends:      50,
		AvgFriends:      10,
		Restaurants:     100,
		VisitsPerPerson: 4,
		Cities:          []string{"NYC", "LA", "SF"},
		Years:           []int{2012, 2013, 2014},
		Seed:            1,
	}
}

// Schema returns the relational schema of Example 1.1 (with dated visits,
// as in Example 4.1's Q3).
func Schema() *relation.Schema {
	return relation.MustSchema(
		relation.MustRelSchema("person", "id", "name", "city"),
		relation.MustRelSchema("friend", "id1", "id2"),
		relation.MustRelSchema("restr", "rid", "name", "city", "rating"),
		relation.MustRelSchema("visit", "id", "rid", "yy", "mm", "dd"),
	)
}

// Access returns the access schema of Examples 4.1/4.6 for a generated
// database: friends capped, person/restr keyed, restaurants indexable by
// city, the 366-day embedded bound and the one-visit-per-day FD.
func Access(cfg Config) *access.Schema {
	a := access.New(Schema())
	a.MustAdd(access.Plain("friend", []string{"id1"}, cfg.MaxFriends, 1))
	a.MustAdd(access.Plain("person", []string{"id"}, 1, 1))
	a.MustAdd(access.Plain("restr", []string{"rid"}, 1, 1))
	// At most ceil(Restaurants/|Cities|) restaurants share a city.
	perCity := (cfg.Restaurants + len(cfg.Cities) - 1) / len(cfg.Cities)
	if perCity < 1 {
		perCity = 1
	}
	a.MustAdd(access.Plain("restr", []string{"city"}, perCity, 1))
	a.MustAdd(access.Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 366, 1))
	a.MustAdd(access.FD("visit", []string{"id", "yy", "mm", "dd"}, []string{"rid"}, 1))
	a.MustAdd(access.Plain("visit", []string{"id"}, cfg.VisitsPerPerson+64, 1))
	return a
}

// Generate builds a database conforming to Access(cfg).
func Generate(cfg Config) (*relation.Database, error) {
	if cfg.Persons <= 0 || cfg.Restaurants <= 0 || len(cfg.Cities) == 0 || len(cfg.Years) == 0 {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	if cfg.AvgFriends > cfg.MaxFriends {
		return nil, fmt.Errorf("workload: AvgFriends %d > MaxFriends %d", cfg.AvgFriends, cfg.MaxFriends)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewDatabase(Schema())
	for i := 0; i < cfg.Persons; i++ {
		db.MustInsert("person", relation.NewTuple(
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("p%d", i)),
			relation.Str(cfg.Cities[i%len(cfg.Cities)]),
		))
		k := friendCount(rng, cfg)
		for j := 0; j < k; j++ {
			other := int64(rng.Intn(cfg.Persons))
			db.Insert("friend", relation.Ints(int64(i), other)) //nolint:errcheck // duplicate edges collapse
		}
	}
	ratings := []string{"A", "B", "C"}
	for r := 0; r < cfg.Restaurants; r++ {
		db.MustInsert("restr", relation.NewTuple(
			relation.Int(restaurantID(r)),
			relation.Str(fmt.Sprintf("r%d", r)),
			relation.Str(cfg.Cities[r%len(cfg.Cities)]),
			relation.Str(ratings[r%len(ratings)]),
		))
	}
	for i := 0; i < cfg.Persons; i++ {
		dates := distinctDates(rng, cfg.VisitsPerPerson)
		for _, d := range dates {
			db.MustInsert("visit", relation.NewTuple(
				relation.Int(int64(i)),
				relation.Int(restaurantID(rng.Intn(cfg.Restaurants))),
				relation.Int(int64(cfg.Years[rng.Intn(len(cfg.Years))])),
				relation.Int(d[0]),
				relation.Int(d[1]),
			))
		}
	}
	return db, nil
}

// friendCount draws a friend count with mean ≈ AvgFriends, capped at
// MaxFriends.
func friendCount(rng *rand.Rand, cfg Config) int {
	if cfg.AvgFriends <= 0 {
		return 0
	}
	k := rng.Intn(2*cfg.AvgFriends + 1)
	if k > cfg.MaxFriends {
		k = cfg.MaxFriends
	}
	return k
}

// distinctDates draws n distinct (mm, dd) pairs. Distinctness per person
// keeps the FD id,yy,mm,dd → rid valid even across repeated years because
// each (mm, dd) is used at most once per person.
func distinctDates(rng *rand.Rand, n int) [][2]int64 {
	seen := make(map[[2]int64]bool, n)
	var out [][2]int64
	for len(out) < n && len(seen) < 12*28 {
		d := [2]int64{int64(1 + rng.Intn(12)), int64(1 + rng.Intn(28))}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// restaurantID maps a restaurant ordinal to its id (offset so person and
// restaurant ids never collide).
func restaurantID(r int) int64 { return int64(1_000_000 + r) }

// VisitInsertions builds an insert-only update stream of n fresh visit
// tuples (valid against db: not already present, FD preserved by using
// late months).
func VisitInsertions(db *relation.Database, cfg Config, n int, seed int64) []*relation.Update {
	rng := rand.New(rand.NewSource(seed))
	var out []*relation.Update
	tries := 0
	for len(out) < n && tries < 100*n+1000 {
		tries++
		t := relation.NewTuple(
			relation.Int(int64(rng.Intn(cfg.Persons))),
			relation.Int(restaurantID(rng.Intn(cfg.Restaurants))),
			relation.Int(int64(cfg.Years[rng.Intn(len(cfg.Years))])),
			relation.Int(int64(1+rng.Intn(12))),
			relation.Int(int64(29+rng.Intn(2))), // days 29-30: generator uses 1-28
		)
		present := db.Rel("visit").Contains(t)
		already := false
		for _, u := range out {
			for _, it := range u.Ins["visit"] {
				if it.Equal(t) || (it[0] == t[0] && it[2] == t[2] && it[3] == t[3] && it[4] == t[4]) {
					already = true
				}
			}
		}
		if present || already {
			continue
		}
		out = append(out, relation.NewUpdate().Insert("visit", t))
	}
	return out
}

// Q1Src, Q2Src and Q3Src are the paper's example queries in the concrete
// syntax, over Schema().
const (
	// Q1: friends of p who live in NYC (Example 1.1(a)).
	Q1Src = "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))"
	// Q2: A-rated NYC restaurants visited by p's NYC friends (Example
	// 1.1(b); visit carries dates here, existentially quantified).
	Q2Src = "Q2(p, rn) :- friend(p, id), visit(id, rid, yy, mm, dd), person(id, pn, 'NYC'), restr(rid, rn, 'NYC', 'A')"
	// Q3: as Q2 but for a given year (Example 4.1/4.6).
	Q3Src = "Q3(rn, p, yy) := exists id, rid, pn, mm, dd (friend(p, id) and visit(id, rid, yy, mm, dd) and person(id, pn, 'NYC') and restr(rid, rn, 'NYC', 'A'))"
)

// MixedCommits generates a deterministic stream of n mixed insert/delete
// commits, each valid against the state reached by applying its
// predecessors to db (which is cloned, not mutated) and conforming to the
// access schema of Access(cfg) at every prefix: friend edges come and go
// under the MaxFriends cap, visits are inserted with per-person-distinct
// dates (preserving the FD id,yy,mm,dd → rid) under the per-person visit
// cap, and fresh persons appear occasionally. Each commit holds one to
// four tuples.
//
// A share of the write traffic targets the hot person ids, so live
// queries fixed on them see real churn; pass nil for a uniform stream.
// This is the workload behind the backendtest livemaint and viewserve
// subtests, core's TestCommitLatencyFlat, sibm's write_live and
// sirun -watch.
func MixedCommits(db *relation.Database, cfg Config, n int, hot []int64, seed int64) []*relation.Update {
	rng := rand.New(rand.NewSource(seed))
	mirror := db.Clone()

	// Incremental bookkeeping so op generation never rescans the mirror:
	// sampling slices for deletions, degree/cap counters for insertions.
	friends := append([]relation.Tuple(nil), mirror.Rel("friend").Tuples()...)
	visits := append([]relation.Tuple(nil), mirror.Rel("visit").Tuples()...)
	persons := make([]int64, 0, mirror.Rel("person").Len())
	for _, t := range mirror.Rel("person").Tuples() {
		persons = append(persons, t[0].AsInt())
	}
	restrs := make([]int64, 0, mirror.Rel("restr").Len())
	for _, t := range mirror.Rel("restr").Tuples() {
		restrs = append(restrs, t[0].AsInt())
	}
	deg := make(map[int64]int)
	for _, t := range friends {
		deg[t[0].AsInt()]++
	}
	visitCap := cfg.VisitsPerPerson + 64 // the visit(id) entry's N
	vcount := make(map[int64]int)
	usedDates := make(map[string]bool, len(visits))
	dateKey := func(t relation.Tuple) string {
		return relation.Tuple{t[0], t[2], t[3], t[4]}.Key()
	}
	for _, t := range visits {
		vcount[t[0].AsInt()]++
		usedDates[dateKey(t)] = true
	}

	pickPerson := func() int64 {
		if len(hot) > 0 && rng.Intn(2) == 0 {
			return hot[rng.Intn(len(hot))]
		}
		return persons[rng.Intn(len(persons))]
	}
	// Fresh person ids start above both the reserved range and every id
	// already present, so repeated MixedCommits calls against an evolving
	// database (sirun -watch regenerates batches from the current state)
	// never re-emit an id a previous batch inserted.
	freshID := int64(10_000_000)
	for _, id := range persons {
		if id > freshID {
			freshID = id
		}
	}

	var out []*relation.Update
	for len(out) < n {
		u := relation.NewUpdate()
		// touched guards against one commit inserting and deleting the same
		// tuple (invalid) or double-touching it.
		touched := make(map[string]bool)
		ops := 1 + rng.Intn(4)
		for op := 0; op < ops; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // insert a friend edge
				a := pickPerson()
				b := persons[rng.Intn(len(persons))]
				t := relation.Ints(a, b)
				k := "friend\x00" + t.Key()
				if a == b || deg[a] >= cfg.MaxFriends || touched[k] || mirror.Rel("friend").Contains(t) {
					continue
				}
				touched[k] = true
				u.Insert("friend", t)
				mirror.MustInsert("friend", t)
				friends = append(friends, t)
				deg[a]++
			case 3, 4: // delete a friend edge
				if len(friends) == 0 {
					continue
				}
				i := rng.Intn(len(friends))
				t := friends[i]
				k := "friend\x00" + t.Key()
				if touched[k] {
					continue
				}
				touched[k] = true
				u.Delete("friend", t)
				mirror.Rel("friend").Delete(t)
				friends[i] = friends[len(friends)-1]
				friends = friends[:len(friends)-1]
				deg[t[0].AsInt()]--
			case 5, 6, 7: // insert a visit on an unused date
				id := pickPerson()
				if vcount[id] >= visitCap {
					continue
				}
				t := relation.NewTuple(
					relation.Int(id),
					relation.Int(restrs[rng.Intn(len(restrs))]),
					relation.Int(int64(cfg.Years[rng.Intn(len(cfg.Years))])),
					relation.Int(int64(1+rng.Intn(12))),
					relation.Int(int64(1+rng.Intn(30))),
				)
				k := "visit\x00" + t.Key()
				if touched[k] || usedDates[dateKey(t)] {
					continue
				}
				touched[k] = true
				usedDates[dateKey(t)] = true
				u.Insert("visit", t)
				mirror.MustInsert("visit", t)
				visits = append(visits, t)
				vcount[id]++
			case 8: // delete a visit
				if len(visits) == 0 {
					continue
				}
				i := rng.Intn(len(visits))
				t := visits[i]
				k := "visit\x00" + t.Key()
				if touched[k] {
					continue
				}
				touched[k] = true
				delete(usedDates, dateKey(t))
				u.Delete("visit", t)
				mirror.Rel("visit").Delete(t)
				visits[i] = visits[len(visits)-1]
				visits = visits[:len(visits)-1]
				vcount[t[0].AsInt()]--
			case 9: // a fresh person arrives
				freshID++
				t := relation.NewTuple(
					relation.Int(freshID),
					relation.Str(fmt.Sprintf("new-%d", freshID)),
					relation.Str(cfg.Cities[rng.Intn(len(cfg.Cities))]),
				)
				u.Insert("person", t)
				mirror.MustInsert("person", t)
				persons = append(persons, freshID)
			}
		}
		if u.Size() == 0 {
			continue
		}
		out = append(out, u)
	}
	return out
}
