package algebra

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// fig1R1 builds the paper's Fig. 1 R1 (already nested).
func fig1R1() *core.Relation {
	s := schema.MustOf("Student", "Course", "Club")
	return core.MustFromTuples(s, []tuple.Tuple{
		core.TupleOfSets([]string{"s1"}, []string{"c1", "c2", "c3"}, []string{"b1"}),
		core.TupleOfSets([]string{"s3"}, []string{"c1", "c2", "c3"}, []string{"b1"}),
		core.TupleOfSets([]string{"s2"}, []string{"c1", "c2", "c3"}, []string{"b2"}),
	})
}

func TestCmpOpApplyAndString(t *testing.T) {
	a, b := value.NewInt(1), value.NewInt(2)
	cases := []struct {
		op   CmpOp
		ab   bool
		aa   bool
		name string
	}{
		{EQ, false, true, "="}, {NE, true, false, "<>"},
		{LT, true, false, "<"}, {LE, true, true, "<="},
		{GT, false, false, ">"}, {GE, false, true, ">="},
	}
	for _, c := range cases {
		if c.op.Apply(a, b) != c.ab || c.op.Apply(a, a) != c.aa {
			t.Errorf("op %v wrong", c.op)
		}
		if c.op.String() != c.name {
			t.Errorf("op name %q != %q", c.op.String(), c.name)
		}
	}
}

func TestSelectContains(t *testing.T) {
	r := fig1R1()
	got, err := Select(r, Contains("Course", value.NewString("c1")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("all students take c1: got %d", got.Len())
	}
	got, err = Select(r, Contains("Club", value.NewString("b2")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Tuple(0).Set(0).Contains(value.NewString("s2")) {
		t.Errorf("club b2 members: %v", got)
	}
}

func TestSelectCmpQuantifiers(t *testing.T) {
	s := schema.MustOf("A", "N")
	r := core.MustFromTuples(s, []tuple.Tuple{
		tuple.MustNew(core.TupleOfSets([]string{"x"}).Set(0), numSet(1, 2, 3)),
		tuple.MustNew(core.TupleOfSets([]string{"y"}).Set(0), numSet(5, 6)),
	})
	any, err := Select(r, Cmp("N", LT, value.NewInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	if any.Len() != 1 {
		t.Errorf("Any LT 3: %d tuples", any.Len())
	}
	all, err := Select(r, CmpAll("N", GE, value.NewInt(5)))
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 1 || !all.Tuple(0).Set(0).Contains(value.NewString("y")) {
		t.Errorf("All GE 5: %v", all)
	}
}

func numSet(vs ...int64) vset.Set { return vset.OfInts(vs...) }

func TestCardPredicate(t *testing.T) {
	r := fig1R1()
	got, err := Select(r, Card("Course", GE, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("card >= 3: %d", got.Len())
	}
	got, err = Select(r, Card("Course", GT, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("card > 3: %d", got.Len())
	}
}

func TestBooleanCombinators(t *testing.T) {
	r := fig1R1()
	p := And(
		Contains("Course", value.NewString("c2")),
		Or(
			Contains("Club", value.NewString("b1")),
			Contains("Club", value.NewString("b2")),
		),
		Not(Contains("Student", value.NewString("s3"))),
	)
	got, err := Select(r, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("combined predicate: %d tuples\n%v", got.Len(), got)
	}
	tr, err := Select(r, True())
	if err != nil || tr.Len() != 3 {
		t.Errorf("True select: %v %v", tr.Len(), err)
	}
	if p.String() == "" || True().String() != "true" {
		t.Error("String renderings")
	}
}

func TestPredicateErrors(t *testing.T) {
	r := fig1R1()
	preds := []Pred{
		Contains("Nope", value.NewString("x")),
		Cmp("Nope", EQ, value.NewString("x")),
		CmpAttrs("Nope", EQ, "Student"),
		CmpAttrs("Student", EQ, "Nope"),
		Card("Nope", EQ, 1),
	}
	for _, p := range preds {
		if _, err := Select(r, p); err == nil {
			t.Errorf("predicate %v accepted unknown attribute", p)
		}
	}
}

func TestCmpAttrs(t *testing.T) {
	s := schema.MustOf("X", "Y")
	r := core.MustFromTuples(s, []tuple.Tuple{
		core.TupleOfSets([]string{"m"}, []string{"m"}),
		core.TupleOfSets([]string{"m"}, []string{"n"}),
	})
	got, err := Select(r, CmpAttrs("X", EQ, "Y"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("X=Y: %d", got.Len())
	}
}

func TestSelectFlatVsSelect(t *testing.T) {
	// Tuple-level select keeps whole groups; flat select can split
	// them. Selecting Course=c1 on R1 flat-level keeps only the c1
	// pairing per student.
	r := fig1R1()
	order := schema.MustPermOf(r.Schema(), "Course", "Student", "Club")
	flat, err := SelectFlat(r, Contains("Course", value.NewString("c1")), order)
	if err != nil {
		t.Fatal(err)
	}
	if flat.ExpansionSize() != 3 {
		t.Errorf("flat select expansion = %d, want 3", flat.ExpansionSize())
	}
	for i := 0; i < flat.Len(); i++ {
		if flat.Tuple(i).Set(1).Len() != 1 {
			t.Error("flat select must keep only c1 in Course")
		}
	}
}

func TestProjectTupleLevel(t *testing.T) {
	r := fig1R1()
	got, err := Project(r, "Student", "Club")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Degree() != 2 || got.Len() != 3 {
		t.Errorf("project: %v", got)
	}
	if _, err := Project(r, "Nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestProjectFlatDeduplicates(t *testing.T) {
	r := fig1R1()
	order := schema.IdentityPerm(1)
	got, err := ProjectFlat(r, order, "Course")
	if err != nil {
		t.Fatal(err)
	}
	// courses c1..c3 shared by all students: 3 flats, nested into ≤3 tuples
	if got.ExpansionSize() != 3 {
		t.Errorf("ProjectFlat expansion = %d", got.ExpansionSize())
	}
	if _, err := ProjectFlat(r, schema.Permutation{0, 1}, "Course"); err == nil {
		t.Error("bad order accepted")
	}
	if _, err := ProjectFlat(r, order, "Nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestRename(t *testing.T) {
	r := fig1R1()
	got, err := Rename(r, "Club", "Society")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Has("Society") || got.Schema().Has("Club") {
		t.Error("rename failed")
	}
	if got.Len() != r.Len() {
		t.Error("tuples lost")
	}
	if _, err := Rename(r, "Nope", "X"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestUnionDifferenceIntersection(t *testing.T) {
	s := schema.MustOf("A", "B")
	order := schema.IdentityPerm(2)
	r1 := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a2", "b1"),
	})
	r2 := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a2", "b1"),
		tuple.FlatOfStrings("a3", "b1"),
	})
	u, err := Union(r1, r2, order)
	if err != nil {
		t.Fatal(err)
	}
	if u.ExpansionSize() != 3 {
		t.Errorf("union size %d", u.ExpansionSize())
	}
	d, err := Difference(r1, r2, order)
	if err != nil {
		t.Fatal(err)
	}
	if d.ExpansionSize() != 1 {
		t.Errorf("difference size %d", d.ExpansionSize())
	}
	i, err := Intersection(r1, r2, order)
	if err != nil {
		t.Fatal(err)
	}
	if i.ExpansionSize() != 1 {
		t.Errorf("intersection size %d", i.ExpansionSize())
	}
	// schema mismatch errors
	r3 := core.NewRelation(schema.MustOf("A", "C"))
	if _, err := Union(r1, r3, order); err == nil {
		t.Error("union schema mismatch accepted")
	}
	if _, err := Difference(r1, r3, order); err == nil {
		t.Error("difference schema mismatch accepted")
	}
	if _, err := Intersection(r1, r3, order); err == nil {
		t.Error("intersection schema mismatch accepted")
	}
}

func TestNaturalJoinRecoversMVDDecomposition(t *testing.T) {
	// The paper's Section-5 point: 4NF decomposition forces joins.
	// Decompose Fig.-1 R1 into SC[Student,Course] and SB[Student,Club],
	// join back, and verify R1* is recovered exactly.
	r1 := fig1R1()
	orderSC := schema.IdentityPerm(2)
	sc, err := ProjectFlat(r1, orderSC, "Student", "Course")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ProjectFlat(r1, orderSC, "Student", "Club")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := NaturalJoin(sc, sb, schema.IdentityPerm(3))
	if err != nil {
		t.Fatal(err)
	}
	if !joined.EquivalentTo(r1) {
		t.Errorf("join did not recover R1:\n%v", joined)
	}
}

func TestNaturalJoinDisjointSchemasIsProduct(t *testing.T) {
	a := core.MustFromFlats(schema.MustOf("A"), []tuple.Flat{
		tuple.FlatOfStrings("a1"), tuple.FlatOfStrings("a2"),
	})
	b := core.MustFromFlats(schema.MustOf("B"), []tuple.Flat{
		tuple.FlatOfStrings("b1"),
	})
	j, err := NaturalJoin(a, b, schema.IdentityPerm(2))
	if err != nil {
		t.Fatal(err)
	}
	if j.ExpansionSize() != 2 {
		t.Errorf("cross join size %d", j.ExpansionSize())
	}
}

func TestProduct(t *testing.T) {
	a := core.MustFromTuples(schema.MustOf("A"), []tuple.Tuple{
		core.TupleOfSets([]string{"a1", "a2"}),
	})
	b := core.MustFromTuples(schema.MustOf("B"), []tuple.Tuple{
		core.TupleOfSets([]string{"b1"}),
		core.TupleOfSets([]string{"b2"}),
	})
	p, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.ExpansionSize() != 4 {
		t.Errorf("product: len %d expansion %d", p.Len(), p.ExpansionSize())
	}
	if _, err := Product(a, a); err == nil {
		t.Error("overlapping schemas accepted")
	}
}

func TestNestUnnestAlgebra(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a1", "b2"),
	})
	n, err := Nest(r, "B")
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 1 || n.Tuple(0).Set(1).Len() != 2 {
		t.Errorf("nest: %v", n)
	}
	u, err := Unnest(n, "B")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(r) {
		t.Errorf("unnest: %v", u)
	}
	if _, err := Nest(r, "Z"); err == nil {
		t.Error("unknown nest attr accepted")
	}
	if _, err := Unnest(r, "Z"); err == nil {
		t.Error("unknown unnest attr accepted")
	}
}

func TestGroupCount(t *testing.T) {
	r := fig1R1()
	g, err := GroupCount(r, "Course", "NumCourses")
	if err != nil {
		t.Fatal(err)
	}
	if g.Schema().Degree() != 4 {
		t.Fatalf("schema: %v", g.Schema())
	}
	for i := 0; i < g.Len(); i++ {
		if got := g.Tuple(i).Set(3).At(0).Int(); got != 3 {
			t.Errorf("count = %d", got)
		}
	}
	if _, err := GroupCount(r, "Nope", "N"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := GroupCount(r, "Course", "Club"); err == nil {
		t.Error("colliding count column accepted")
	}
}

// Property: flat-level algebra on NFRs agrees with naive 1NF algebra
// on the expansions (selection and projection).
func TestFlatSemanticsAgreesWith1NF(t *testing.T) {
	s := schema.MustOf("A", "B", "C")
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var fl []tuple.Flat
		for i := 0; i < 3+rng.Intn(15); i++ {
			fl = append(fl, tuple.Flat{
				value.NewInt(int64(rng.Intn(4))),
				value.NewInt(int64(rng.Intn(4))),
				value.NewInt(int64(rng.Intn(4))),
			})
		}
		r := core.MustFromFlats(s, fl)
		nested, _ := r.Canonical(schema.IdentityPerm(3))
		cut := value.NewInt(2)

		// selection via NFR flat-level
		sel, err := SelectFlat(nested, Cmp("B", LT, cut), schema.IdentityPerm(3))
		if err != nil {
			t.Fatal(err)
		}
		// naive 1NF
		naive := map[string]bool{}
		for _, f := range r.Expand() {
			if value.Compare(f[1], cut) < 0 {
				naive[f.Key()] = true
			}
		}
		got := map[string]bool{}
		for _, f := range sel.Expand() {
			got[f.Key()] = true
		}
		if len(got) != len(naive) {
			t.Fatalf("trial %d: select sizes %d vs %d", trial, len(got), len(naive))
		}
		for k := range naive {
			if !got[k] {
				t.Fatalf("trial %d: missing %q", trial, k)
			}
		}

		// projection
		proj, err := ProjectFlat(nested, schema.IdentityPerm(2), "A", "C")
		if err != nil {
			t.Fatal(err)
		}
		naiveP := map[string]bool{}
		for _, f := range r.Expand() {
			naiveP[tuple.Flat{f[0], f[2]}.Key()] = true
		}
		if proj.ExpansionSize() != len(naiveP) {
			t.Fatalf("trial %d: projection sizes %d vs %d", trial, proj.ExpansionSize(), len(naiveP))
		}
	}
}

// foreignPred is a predicate built outside this package.
type foreignPred struct{ truePred }

func TestAttrs(t *testing.T) {
	x := value.NewString("x")
	cases := []struct {
		p    Pred
		want []string
		ok   bool
	}{
		{nil, nil, true},
		{True(), nil, true},
		{Cmp("A", LT, x), []string{"A"}, true},
		{And(CmpAll("B", GE, x), Or(Contains("A", x), Not(Card("B", EQ, 1)))), []string{"A", "B"}, true},
		{CmpAttrs("C", EQ, "A"), []string{"A", "C"}, true},
		{CmpAttrs("A", NE, "A"), []string{"A"}, true},
		{And(Cmp("A", EQ, x), foreignPred{}), nil, false},
	}
	for _, c := range cases {
		got, ok := Attrs(c.p)
		if ok != c.ok || (ok && !slices.Equal(got, c.want)) {
			t.Errorf("Attrs(%v) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
}
