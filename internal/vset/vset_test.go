package vset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestNewDedupSort(t *testing.T) {
	s := New(value.NewInt(3), value.NewInt(1), value.NewInt(3), value.NewInt(2))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := []int64{1, 2, 3}
	for i, w := range want {
		if s.At(i).Int() != w {
			t.Errorf("At(%d) = %v, want %d", i, s.At(i), w)
		}
	}
}

func TestEmptySet(t *testing.T) {
	var z Set
	if !z.IsEmpty() || z.Len() != 0 {
		t.Error("zero Set must be empty")
	}
	if z.String() != "∅" {
		t.Errorf("empty String = %q", z.String())
	}
	if !z.Equal(New()) {
		t.Error("zero Set != New()")
	}
	if !z.SubsetOf(OfStrings("a")) {
		t.Error("empty ⊆ anything")
	}
}

func TestSingle(t *testing.T) {
	s := Single(value.NewString("a"))
	if s.Len() != 1 || !s.Contains(value.NewString("a")) {
		t.Error("Single broken")
	}
	if !s.Equal(OfStrings("a")) {
		t.Error("Single != New equivalent")
	}
}

func TestMin(t *testing.T) {
	s := OfInts(5, 2, 9)
	if s.Min().Int() != 2 {
		t.Errorf("Min = %v", s.Min())
	}
	defer func() {
		if recover() == nil {
			t.Error("Min on empty should panic")
		}
	}()
	(Set{}).Min()
}

func TestFromSortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSorted must reject unsorted input")
		}
	}()
	FromSorted([]value.Atom{value.NewInt(2), value.NewInt(1)})
}

func TestFromSortedOK(t *testing.T) {
	s := FromSorted([]value.Atom{value.NewInt(1), value.NewInt(2)})
	if !s.Equal(OfInts(1, 2)) {
		t.Error("FromSorted mismatch")
	}
}

func TestContains(t *testing.T) {
	s := OfStrings("b1", "b2", "b3")
	for _, x := range []string{"b1", "b2", "b3"} {
		if !s.Contains(value.NewString(x)) {
			t.Errorf("should contain %s", x)
		}
	}
	if s.Contains(value.NewString("b0")) || s.Contains(value.NewString("b4")) {
		t.Error("contains absent element")
	}
	if s.Contains(value.NewInt(1)) {
		t.Error("contains wrong-kind element")
	}
}

func TestEqualAndHash(t *testing.T) {
	a := OfStrings("x", "y")
	b := New(value.NewString("y"), value.NewString("x"))
	if !a.Equal(b) {
		t.Error("order-insensitive equality failed")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal sets must hash equal")
	}
	c := OfStrings("x")
	if a.Equal(c) {
		t.Error("different sets equal")
	}
	// {} vs {x}: hashes should differ thanks to cardinality mixing
	if (Set{}).Hash() == c.Hash() {
		t.Error("suspicious hash collision empty vs single")
	}
}

func TestUnion(t *testing.T) {
	a := OfStrings("b1", "b2")
	b := OfStrings("b3")
	u := a.Union(b)
	if !u.Equal(OfStrings("b1", "b2", "b3")) {
		t.Errorf("Union = %v", u)
	}
	// overlapping
	u2 := a.Union(OfStrings("b2", "b4"))
	if !u2.Equal(OfStrings("b1", "b2", "b4")) {
		t.Errorf("Union overlap = %v", u2)
	}
	// identities
	if !a.Union(Set{}).Equal(a) || !(Set{}).Union(a).Equal(a) {
		t.Error("union with empty")
	}
}

func TestDiff(t *testing.T) {
	a := OfStrings("b1", "b2", "b3")
	if !a.Diff(OfStrings("b2")).Equal(OfStrings("b1", "b3")) {
		t.Error("Diff middle")
	}
	if !a.Diff(OfStrings("zz")).Equal(a) {
		t.Error("Diff absent")
	}
	if !a.Diff(a).IsEmpty() {
		t.Error("Diff self")
	}
	if !a.Diff(Set{}).Equal(a) {
		t.Error("Diff empty")
	}
	if !(Set{}).Diff(a).IsEmpty() {
		t.Error("empty Diff")
	}
}

func TestAddRemove(t *testing.T) {
	s := OfStrings("a")
	s2 := s.Add(value.NewString("b"))
	if !s2.Equal(OfStrings("a", "b")) {
		t.Error("Add")
	}
	if !s2.Remove(value.NewString("a")).Equal(OfStrings("b")) {
		t.Error("Remove")
	}
	// original unchanged (immutability)
	if !s.Equal(OfStrings("a")) {
		t.Error("Add mutated receiver")
	}
}

func TestIntersectDisjointSubset(t *testing.T) {
	a := OfInts(1, 2, 3, 4)
	b := OfInts(3, 4, 5)
	if !a.Intersect(b).Equal(OfInts(3, 4)) {
		t.Error("Intersect")
	}
	if a.Disjoint(b) {
		t.Error("Disjoint false positive")
	}
	if !a.Disjoint(OfInts(9)) {
		t.Error("Disjoint false negative")
	}
	if !OfInts(2, 3).SubsetOf(a) {
		t.Error("SubsetOf true case")
	}
	if OfInts(2, 9).SubsetOf(a) {
		t.Error("SubsetOf false case")
	}
	if OfInts(1, 2, 3, 4, 5).SubsetOf(a) {
		t.Error("bigger set subset of smaller")
	}
}

func TestString(t *testing.T) {
	if got := OfStrings("b2", "b1").String(); got != "b1,b2" {
		t.Errorf("String = %q", got)
	}
	if got := OfStrings("only").String(); got != "only" {
		t.Errorf("String single = %q", got)
	}
}

func TestLargeSortPath(t *testing.T) {
	// force the quicksort path (> 12 elements) and verify order
	rng := rand.New(rand.NewSource(1))
	var atoms []value.Atom
	for i := 0; i < 200; i++ {
		atoms = append(atoms, value.NewInt(int64(rng.Intn(80))))
	}
	s := New(atoms...)
	for i := 1; i < s.Len(); i++ {
		if value.Compare(s.At(i-1), s.At(i)) >= 0 {
			t.Fatalf("not strictly sorted at %d", i)
		}
	}
}

func randSet(rng *rand.Rand) Set {
	n := rng.Intn(8)
	var atoms []value.Atom
	for i := 0; i < n; i++ {
		atoms = append(atoms, value.NewInt(int64(rng.Intn(10))))
	}
	return New(atoms...)
}

// Property tests on set algebra laws.
func TestSetAlgebraProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randSet(rng), randSet(rng), randSet(rng)
		// commutativity
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		// associativity
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		// absorption: a ∪ (a ∩ b) == a
		if !a.Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// diff laws: (a\b) ∩ b == ∅ ; (a\b) ∪ (a∩b) == a
		if !a.Diff(b).Intersect(b).IsEmpty() {
			return false
		}
		if !a.Diff(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// subset consistency
		if a.Intersect(b).SubsetOf(a) != true {
			return false
		}
		// hash/equality coherence
		if a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: union of a set with a singleton then removing it restores
// the set when the element was absent (decomposition/composition dual).
func TestAddRemoveRoundTrip(t *testing.T) {
	f := func(seed int64, v int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSet(rng)
		a := value.NewInt(v%10 + 100) // guaranteed absent (base range 0..9)
		return s.Add(a).Remove(a).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDisjointMatchesIntersect: Disjoint is a merge walk of its own;
// Intersect is the reference.
func TestDisjointMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	draw := func() Set {
		atoms := make([]value.Atom, rng.Intn(6))
		for i := range atoms {
			if rng.Intn(2) == 0 {
				atoms[i] = value.NewInt(int64(rng.Intn(8)))
			} else {
				atoms[i] = value.NewString(string(rune('0' + rng.Intn(8))))
			}
		}
		return New(atoms...)
	}
	for i := 0; i < 2000; i++ {
		a, b := draw(), draw()
		if got, want := a.Disjoint(b), a.Intersect(b).IsEmpty(); got != want {
			t.Fatalf("{%v}.Disjoint({%v}) = %v, want %v", a, b, got, want)
		}
	}
}

var disjointSink bool

// BenchmarkVsetDisjoint is candt's inner test on the benchmark's dense
// shape: an 8-course component against a floating tuple's one course,
// half the time sharing it.
func BenchmarkVsetDisjoint(b *testing.B) {
	comp := OfStrings("c003", "c007", "c011", "c015", "c019", "c023", "c027", "c029")
	probes := []Set{OfStrings("c019"), OfStrings("c020")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disjointSink = comp.Disjoint(probes[i&1])
	}
}
