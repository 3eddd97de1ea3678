package plan

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/query"
)

// TestVarsNumbering checks the numbering of one formula: ids follow
// sorted names whatever order the variables occur in, every node's free
// mask and position match the formula, atoms keep their argument ids,
// and a 65th variable is refused.
func TestVarsNumbering(t *testing.T) {
	// ∃z (r(y, z, 7) ∧ ¬ s(x)) ∨ ∀w (t(w) → x = w): node positions in
	// pre-order are Or 0, Exists 1, And 2, r 3, Not 4, s 5, Forall 6,
	// Implies 7, t 8, Eq 9.
	r := query.NewAtom("r", query.Var("y"), query.Var("z"), query.ConstInt(7))
	s := query.NewAtom("s", query.Var("x"))
	tw := query.NewAtom("t", query.Var("w"))
	f := query.NewOr(
		query.NewExists([]string{"z"}, query.NewAnd(r, query.NewNot(s))),
		query.NewForall([]string{"w"}, query.NewImplies(tw, query.NewEq(query.Var("x"), query.Var("w")))),
	)
	vt, err := NumberFormula(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := vt.Names(0b1111); !slices.Equal(got, []string{"w", "x", "y", "z"}) {
		t.Fatalf("names by id %v, want [w x y z]", got)
	}
	w, x, y, z := uint64(1), uint64(2), uint64(4), uint64(8)
	for pos, want := range []uint64{x | y, x | y, x | y | z, y | z, x, x, x, w | x, w, w | x} {
		if got := vt.Free(pos); got != want {
			t.Errorf("node %d: free %s, want %s", pos, vt.Format(got), vt.Format(want))
		}
	}
	if vt.Right(0) != 6 || vt.Right(2) != 4 || vt.Right(7) != 9 {
		t.Errorf("right operands at %d, %d, %d; want 6, 4, 9", vt.Right(0), vt.Right(2), vt.Right(7))
	}
	if got := vt.Args(3); !slices.Equal(got, []int8{2, 3, -1}) {
		t.Errorf("r's argument ids %v, want [2 3 -1]", got)
	}
	if got := vt.Args(9); !slices.Equal(got, []int8{1, 0}) {
		t.Errorf("x = w's argument ids %v, want [1 0]", got)
	}
	if got := vt.Args(0); len(got) != 0 {
		t.Errorf("Or has argument ids %v", got)
	}
	if got := ArgMask(vt.Args(3), []int{1, 2}); got != z {
		t.Errorf("ArgMask(r, [1 2]) = %s, want {z}", vt.Format(got))
	}
	if got := vt.Set(x | z); !got.Equal(query.NewVarSet("x", "z")) || vt.Format(x|z) != got.String() {
		t.Errorf("Set %v, Format %s", got, vt.Format(x|z))
	}
	if got := vt.Mask(query.NewVarSet("y", "w", "unknown")); got != w|y {
		t.Errorf("Mask = %s, want {w, y}", vt.Format(got))
	}

	// 64 variables number, with the last sorted name at bit 63; a 65th
	// is refused.
	args := make([]query.Term, 65)
	for i := range args {
		args[i] = query.Var(fmt.Sprintf("v%02d", 64-i))
	}
	wide, err := NumberAtoms([]*query.Atom{query.NewAtom("r", args[1:]...)})
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Names(1 << 63); !slices.Equal(got, []string{"v63"}) {
		t.Fatalf("bit 63 names %v, want [v63]", got)
	}
	if got := wide.Args(0)[0]; got != 63 {
		t.Fatalf("first argument v63 has id %d, want 63", got)
	}
	if _, err := NumberAtoms([]*query.Atom{query.NewAtom("r", args...)}); !errors.Is(err, ErrTooManyVars) {
		t.Fatalf("65 variables: err %v, want ErrTooManyVars", err)
	}
}
