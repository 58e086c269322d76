package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

func flats(rows ...[]string) []tuple.Flat {
	out := make([]tuple.Flat, len(rows))
	for i, r := range rows {
		out[i] = tuple.FlatOfStrings(r...)
	}
	return out
}

func TestFromFlatsDedup(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := MustFromFlats(s, flats([]string{"a", "b"}, []string{"a", "b"}, []string{"a", "c"}))
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2 (dedup)", r.Len())
	}
	if !r.IsFlat() {
		t.Error("FromFlats result not flat")
	}
}

func TestFromFlatsDegreeMismatch(t *testing.T) {
	s := schema.MustOf("A", "B")
	if _, err := FromFlats(s, flats([]string{"a"})); err == nil {
		t.Error("degree mismatch accepted")
	}
	if _, err := FromTuples(s, []tuple.Tuple{TupleOfSets([]string{"a"})}); err == nil {
		t.Error("tuple degree mismatch accepted")
	}
}

func TestAddRemoveHas(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := NewRelation(s)
	t1 := TupleOfSets([]string{"a1", "a2"}, []string{"b1"})
	t2 := TupleOfSets([]string{"a3"}, []string{"b2"})
	if !r.Add(t1) || !r.Add(t2) {
		t.Fatal("Add returned false")
	}
	if r.Add(t1) {
		t.Error("duplicate Add returned true")
	}
	if r.Len() != 2 || !r.Has(t1) {
		t.Error("Has/Len broken")
	}
	if !r.Remove(t1) {
		t.Error("Remove returned false")
	}
	if r.Has(t1) || r.Len() != 1 {
		t.Error("Remove did not remove")
	}
	if r.Remove(t1) {
		t.Error("double Remove returned true")
	}
	// index consistency after removal
	if !r.Has(t2) {
		t.Error("index corrupted by Remove")
	}
}

func TestRemoveMiddleKeepsIndex(t *testing.T) {
	s := schema.MustOf("A")
	r := NewRelation(s)
	ts := []tuple.Tuple{
		TupleOfSets([]string{"a"}),
		TupleOfSets([]string{"b"}),
		TupleOfSets([]string{"c"}),
	}
	for _, x := range ts {
		r.Add(x)
	}
	r.Remove(ts[1])
	if !r.Has(ts[0]) || !r.Has(ts[2]) || r.Has(ts[1]) {
		t.Error("index wrong after middle removal")
	}
	if r.Tuple(0).Key() != ts[0].Key() || r.Tuple(1).Key() != ts[2].Key() {
		t.Error("order wrong after middle removal")
	}
}

func TestExpandTheorem1(t *testing.T) {
	// Theorem 1: an NFR has one and only one R*. Two different NFRs of
	// the same 1NF relation must expand to the identical flat set.
	s := schema.MustOf("A", "B")
	flat := flats(
		[]string{"a1", "b1"}, []string{"a2", "b1"},
		[]string{"a2", "b2"}, []string{"a3", "b2"},
	)
	r1nf := MustFromFlats(s, flat)
	// grouping 1: {a1,a2|b1}, {a2,a3|b2}
	g1 := MustFromTuples(s, []tuple.Tuple{
		TupleOfSets([]string{"a1", "a2"}, []string{"b1"}),
		TupleOfSets([]string{"a2", "a3"}, []string{"b2"}),
	})
	// grouping 2: {a1|b1}, {a2|b1,b2}, {a3|b2}
	g2 := MustFromTuples(s, []tuple.Tuple{
		TupleOfSets([]string{"a1"}, []string{"b1"}),
		TupleOfSets([]string{"a2"}, []string{"b1", "b2"}),
		TupleOfSets([]string{"a3"}, []string{"b2"}),
	})
	if !g1.EquivalentTo(r1nf) || !g2.EquivalentTo(r1nf) || !g1.EquivalentTo(g2) {
		t.Fatal("equivalent NFRs not recognized")
	}
	e1, e2 := g1.Expand(), g2.Expand()
	if len(e1) != 4 || len(e2) != 4 {
		t.Fatalf("expansion sizes: %d, %d", len(e1), len(e2))
	}
	for i := range e1 {
		if !e1[i].Equal(e2[i]) {
			t.Errorf("expansions differ at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
	if g1.ExpansionSize() != 4 {
		t.Errorf("ExpansionSize = %d", g1.ExpansionSize())
	}
}

func TestEquivalentToNegative(t *testing.T) {
	s := schema.MustOf("A", "B")
	r1 := MustFromFlats(s, flats([]string{"a", "b"}))
	r2 := MustFromFlats(s, flats([]string{"a", "c"}))
	if r1.EquivalentTo(r2) {
		t.Error("different relations equivalent")
	}
	r3 := MustFromFlats(schema.MustOf("A", "C"), flats([]string{"a", "b"}))
	if r1.EquivalentTo(r3) {
		t.Error("different schemas equivalent")
	}
	// same size, different content
	r4 := MustFromFlats(s, flats([]string{"a", "b"}, []string{"x", "y"}))
	r5 := MustFromFlats(s, flats([]string{"a", "b"}, []string{"x", "z"}))
	if r4.EquivalentTo(r5) {
		t.Error("same-size different relations equivalent")
	}
}

func TestContainsFlat(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := MustFromTuples(s, []tuple.Tuple{
		TupleOfSets([]string{"a1", "a2"}, []string{"b1"}),
	})
	cover, ok := r.ContainsFlat(tuple.FlatOfStrings("a2", "b1"))
	if !ok {
		t.Fatal("ContainsFlat missed covered tuple")
	}
	if !cover.Equal(r.Tuple(0)) {
		t.Error("wrong covering tuple")
	}
	if _, ok := r.ContainsFlat(tuple.FlatOfStrings("a9", "b1")); ok {
		t.Error("ContainsFlat false positive")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := schema.MustOf("A")
	r := MustFromFlats(s, flats([]string{"x"}))
	c := r.Clone()
	c.Add(TupleOfSets([]string{"y"}))
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("Clone not independent")
	}
}

func TestCheckDisjoint(t *testing.T) {
	s := schema.MustOf("A", "B")
	good := MustFromTuples(s, []tuple.Tuple{
		TupleOfSets([]string{"a1"}, []string{"b1", "b2"}),
		TupleOfSets([]string{"a2"}, []string{"b1"}),
	})
	if _, _, ok := good.CheckDisjoint(); !ok {
		t.Error("disjoint relation flagged")
	}
	bad := MustFromTuples(s, []tuple.Tuple{
		TupleOfSets([]string{"a1", "a2"}, []string{"b1"}),
		TupleOfSets([]string{"a2"}, []string{"b1", "b2"}),
	})
	if i, j, ok := bad.CheckDisjoint(); ok {
		t.Error("overlap not detected")
	} else if i != 0 || j != 1 {
		t.Errorf("overlap pair = %d,%d", i, j)
	}
}

func TestKeyOrderIndependent(t *testing.T) {
	s := schema.MustOf("A")
	r1 := NewRelation(s)
	r1.Add(TupleOfSets([]string{"x"}))
	r1.Add(TupleOfSets([]string{"y"}))
	r2 := NewRelation(s)
	r2.Add(TupleOfSets([]string{"y"}))
	r2.Add(TupleOfSets([]string{"x"}))
	if r1.Key() != r2.Key() {
		t.Error("Key depends on insertion order")
	}
	if !r1.Equal(r2) {
		t.Error("Equal depends on insertion order")
	}
}

func TestStringAndSort(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := NewRelation(s)
	r.Add(TupleOfSets([]string{"z"}, []string{"b"}))
	r.Add(TupleOfSets([]string{"a"}, []string{"b"}))
	r.SortTuples()
	out := r.String()
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "[A(a)") {
		t.Errorf("String after sort = %q", out)
	}
	if !r.Has(TupleOfSets([]string{"z"}, []string{"b"})) {
		t.Error("index broken after SortTuples")
	}
}

// TestRelationTellsAtomKindsApart: tuples whose atoms render alike but
// differ in kind (Int 1, String "1", Float 1.0; Bool true, String
// "true") are different tuples to Add, Has, Remove and Equal.
func TestRelationTellsAtomKindsApart(t *testing.T) {
	s := schema.MustOf("A", "B")
	pair := func(a, b value.Atom) tuple.Tuple { return tuple.FromFlat(tuple.Flat{a, b}) }
	ts := []tuple.Tuple{
		pair(value.NewInt(1), value.NewInt(2)),
		pair(value.NewString("1"), value.NewString("2")),
		pair(value.NewFloat(1), value.NewFloat(2)),
		pair(value.NewBool(true), value.NewString("x")),
		pair(value.NewString("true"), value.NewString("x")),
	}
	r := NewRelation(s)
	for i, x := range ts {
		if !r.Add(x) {
			t.Fatalf("Add(%v) reported no change after %v", x, ts[:i])
		}
	}
	if r.Len() != len(ts) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(ts))
	}
	for i, x := range ts {
		one := MustFromTuples(s, []tuple.Tuple{x})
		for j, y := range ts {
			if got := one.Has(y); got != (i == j) {
				t.Errorf("{%v}.Has(%v) = %v", x, y, got)
			}
			if got := one.Equal(MustFromTuples(s, []tuple.Tuple{y})); got != (i == j) {
				t.Errorf("{%v}.Equal({%v}) = %v", x, y, got)
			}
		}
	}
	for i, x := range ts {
		if !r.Remove(x) || r.Has(x) {
			t.Fatalf("Remove(%v) failed", x)
		}
		for _, y := range ts[i+1:] {
			if !r.Has(y) {
				t.Fatalf("Remove(%v) took %v with it", x, y)
			}
		}
	}
}

// TestSignedZeroIsOneAtom: value.Compare calls -0.0 and +0.0 equal, so
// they are one tuple to a Relation and one set to vset.
func TestSignedZeroIsOneAtom(t *testing.T) {
	pos, neg := value.NewFloat(0), value.NewFloat(math.Copysign(0, -1))
	r := NewRelation(schema.MustOf("X"))
	r.Add(tuple.FromFlat(tuple.Flat{pos}))
	if r.Add(tuple.FromFlat(tuple.Flat{neg})) || r.Len() != 1 {
		t.Fatalf("(-0.0) added beside (+0.0): Len = %d", r.Len())
	}
	if !r.Has(tuple.FromFlat(tuple.Flat{neg})) {
		t.Fatal("Has(-0.0) = false beside +0.0")
	}
	if a, b := vset.Single(pos), vset.Single(neg); !a.Equal(b) {
		t.Fatalf("{%v} != {%v}", a, b)
	}
}

// TestComposablePairTellsAtomKindsApart: on {(1, x), ("1", y)} the two
// tuples agree on nothing, although both A components render as 1, so
// no composition applies and IrreducibleGreedy has nothing to compose.
func TestComposablePairTellsAtomKindsApart(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := MustFromTuples(s, []tuple.Tuple{
		tuple.FromFlat(tuple.Flat{value.NewInt(1), value.NewString("x")}),
		tuple.FromFlat(tuple.Flat{value.NewString("1"), value.NewString("y")}),
	})
	if a, b, attr, ok := r.ComposablePair(); ok {
		t.Fatalf("ComposablePair = %d %d %d true", a, b, attr)
	}
	if !r.IsIrreducible() {
		t.Fatal("IsIrreducible = false")
	}
	if got, n := r.IrreducibleGreedy(nil); n != 0 || !got.Equal(r) {
		t.Fatalf("IrreducibleGreedy composed %d pair(s): %v", n, got)
	}
}

// TestRelationHashCollisions drives Add, Remove, Has, Clone and
// SortTuples with hashes cut to two bits, so that most tuples share a
// chain, against a plain list of the tuples in insertion order.
func TestRelationHashCollisions(t *testing.T) {
	defer func(m uint64) { hashMask = m }(hashMask)
	hashMask = 3

	s := schema.MustOf("A", "B")
	var pool []tuple.Tuple
	for i := 0; i < 24; i++ {
		pool = append(pool, TupleOfSets([]string{fmt.Sprint("a", i%5)}, []string{fmt.Sprint("b", i)}))
	}
	rng := rand.New(rand.NewSource(1))
	r := NewRelation(s)
	var model []tuple.Tuple
	indexOf := func(x tuple.Tuple) int {
		return slices.IndexFunc(model, func(y tuple.Tuple) bool { return y.Equal(x) })
	}
	for step := 0; step < 3000; step++ {
		x := pool[rng.Intn(len(pool))]
		at := indexOf(x)
		switch op := rng.Intn(10); {
		case op < 5:
			if got := r.Add(x); got != (at < 0) {
				t.Fatalf("step %d: Add(%v) = %v", step, x, got)
			}
			if at < 0 {
				model = append(model, x)
			}
		case op < 9:
			if got := r.Remove(x); got != (at >= 0) {
				t.Fatalf("step %d: Remove(%v) = %v", step, x, got)
			}
			if at >= 0 {
				model = slices.Delete(model, at, at+1)
			}
		default:
			c := r.Clone()
			r.SortTuples()
			slices.SortStableFunc(model, func(a, b tuple.Tuple) int { return strings.Compare(a.Key(), b.Key()) })
			if !c.Equal(r) || !r.Equal(c) {
				t.Fatalf("step %d: a clone and the sorted original differ", step)
			}
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(model))
		}
		for i, y := range model {
			if !r.Tuple(i).Equal(y) {
				t.Fatalf("step %d: position %d holds %v, want %v", step, i, r.Tuple(i), y)
			}
		}
		for _, y := range pool {
			if r.Has(y) != (indexOf(y) >= 0) {
				t.Fatalf("step %d: Has(%v) = %v", step, y, r.Has(y))
			}
		}
	}
}

// TestIsCanonicalForHashCollisions: with row hashes cut to one bit
// nearly every row collides with another, so each answer rests on the
// exact comparison. Every order's V_P, V_Q and the 1NF form of random
// degree-3 relations are checked against rebuilding V_P.
func TestIsCanonicalForHashCollisions(t *testing.T) {
	defer func(m uint64) { hashMask = m }(hashMask)
	hashMask = 1

	s := schema.MustOf("A", "B", "C")
	perms := schema.AllPermutations(3)
	rng := rand.New(rand.NewSource(3))
	answers := map[bool]int{}
	for round := 0; round < 40; round++ {
		var fs []tuple.Flat
		for i := 0; i < 4+rng.Intn(24); i++ {
			fs = append(fs, tuple.Flat(value.Ints(int64(rng.Intn(3)), int64(rng.Intn(3)), int64(rng.Intn(2)))))
		}
		flat := MustFromFlats(s, fs)
		for _, p := range perms {
			want, _ := flat.CanonicalFromFlats(p)
			for _, q := range perms {
				r, _ := flat.Canonical(q)
				for _, r := range []*Relation{r, flat} {
					got := r.IsCanonicalFor(p)
					if got != r.Equal(want) {
						t.Fatalf("P=%v: IsCanonicalFor = %v over\n%v\nV_P is\n%v", p, got, r, want)
					}
					answers[got]++
				}
			}
		}
	}
	if answers[false] == 0 || answers[true] == 0 {
		t.Fatalf("answers = %v: both must occur", answers)
	}
}
