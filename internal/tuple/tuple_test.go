package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/vset"
)

// tup is a test helper building a tuple of string-sets.
func tup(components ...[]string) Tuple {
	sets := make([]vset.Set, len(components))
	for i, c := range components {
		sets[i] = vset.OfStrings(c...)
	}
	return MustNew(sets...)
}

func TestNewRejectsEmptyComponent(t *testing.T) {
	if _, err := New(vset.OfStrings("a"), vset.Set{}); err == nil {
		t.Error("empty component accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(vset.Set{})
}

func TestFlatHelpers(t *testing.T) {
	f := FlatOfStrings("s1", "c1")
	g := Flat{value.NewString("s1"), value.NewString("c1")}
	if !f.Equal(g) {
		t.Error("FlatOfStrings != Flat literal")
	}
	if f.Equal(FlatOfStrings("s1")) {
		t.Error("length mismatch equal")
	}
	if f.Equal(FlatOfStrings("s1", "c2")) {
		t.Error("different atoms equal")
	}
	if f.String() != "(s1, c1)" {
		t.Errorf("String = %q", f.String())
	}
	if f.Key() == FlatOfStrings("s1", "c2").Key() {
		t.Error("Key collision")
	}
	c := f.Clone()
	c[0] = value.NewString("zz")
	if f[0].Str() != "s1" {
		t.Error("Clone shares storage")
	}
}

func TestFromFlatAndBack(t *testing.T) {
	f := FlatOfStrings("a", "b", "c")
	nt := FromFlat(f)
	if !nt.IsFlat() {
		t.Error("FromFlat not flat")
	}
	if !nt.ToFlat().Equal(f) {
		t.Error("roundtrip failed")
	}
	wide := tup([]string{"a", "b"}, []string{"c"})
	if wide.IsFlat() {
		t.Error("wide tuple reported flat")
	}
	defer func() {
		if recover() == nil {
			t.Error("ToFlat on wide tuple should panic")
		}
	}()
	wide.ToFlat()
}

func TestExpansion(t *testing.T) {
	// [A(a1,a2) B(b1)] means {(a1,b1),(a2,b1)} — the paper's example.
	nt := tup([]string{"a1", "a2"}, []string{"b1"})
	if nt.ExpansionSize() != 2 {
		t.Errorf("ExpansionSize = %d", nt.ExpansionSize())
	}
	flats := nt.Expand()
	if len(flats) != 2 {
		t.Fatalf("Expand len = %d", len(flats))
	}
	if !flats[0].Equal(FlatOfStrings("a1", "b1")) || !flats[1].Equal(FlatOfStrings("a2", "b1")) {
		t.Errorf("Expand = %v", flats)
	}
	for _, f := range flats {
		if !nt.ContainsFlat(f) {
			t.Errorf("ContainsFlat(%v) false", f)
		}
	}
	if nt.ContainsFlat(FlatOfStrings("a3", "b1")) {
		t.Error("ContainsFlat accepted foreign tuple")
	}
	if nt.ContainsFlat(FlatOfStrings("a1")) {
		t.Error("ContainsFlat accepted short tuple")
	}
}

func TestExpansionSizeProduct(t *testing.T) {
	nt := tup([]string{"a", "b"}, []string{"x", "y", "z"}, []string{"q"})
	if nt.ExpansionSize() != 6 {
		t.Errorf("ExpansionSize = %d, want 6", nt.ExpansionSize())
	}
	if got := len(nt.Expand()); got != 6 {
		t.Errorf("Expand = %d", got)
	}
}

func TestComposePaperExample(t *testing.T) {
	// t1 = [A(a1,a2) B(b1,b2) C(c1)], t2 = [A(a1,a2) B(b3) C(c1)]
	// νB(t1,t2) = [A(a1,a2) B(b1,b2,b3) C(c1)]  (paper, Section 3.2)
	t1 := tup([]string{"a1", "a2"}, []string{"b1", "b2"}, []string{"c1"})
	t2 := tup([]string{"a1", "a2"}, []string{"b3"}, []string{"c1"})
	t3, ok := Compose(t1, t2, 1)
	if !ok {
		t.Fatal("compose refused")
	}
	want := tup([]string{"a1", "a2"}, []string{"b1", "b2", "b3"}, []string{"c1"})
	if !t3.Equal(want) {
		t.Errorf("Compose = %v, want %v", t3, want)
	}
}

func TestComposeRefusals(t *testing.T) {
	t1 := tup([]string{"a1"}, []string{"b1"})
	t2 := tup([]string{"a2"}, []string{"b2"})
	if _, ok := Compose(t1, t2, 0); ok {
		t.Error("composed tuples disagreeing on non-c component")
	}
	if _, ok := Compose(t1, t2, -1); ok {
		t.Error("negative index accepted")
	}
	if _, ok := Compose(t1, t2, 2); ok {
		t.Error("out-of-range index accepted")
	}
	// degree mismatch
	if _, ok := Compose(t1, tup([]string{"a1"}), 0); ok {
		t.Error("degree mismatch accepted")
	}
}

func TestComposeIsLossless(t *testing.T) {
	// Expansion of composition == union of expansions.
	t1 := tup([]string{"a1", "a2"}, []string{"b1"})
	t2 := tup([]string{"a1", "a2"}, []string{"b2", "b3"})
	t3, ok := Compose(t1, t2, 1)
	if !ok {
		t.Fatal("compose refused")
	}
	want := map[string]bool{}
	for _, f := range append(t1.Expand(), t2.Expand()...) {
		want[f.Key()] = true
	}
	got := map[string]bool{}
	for _, f := range t3.Expand() {
		got[f.Key()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("expansion sizes differ: %d vs %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing flat tuple %q", k)
		}
	}
}

func TestDecomposePaperExample(t *testing.T) {
	// u_{B(b3)}(t3) gives back t1 and t2 from the composition example.
	t3 := tup([]string{"a1", "a2"}, []string{"b1", "b2", "b3"}, []string{"c1"})
	tr, te, ok := Decompose(t3, 1, value.NewString("b3"))
	if !ok {
		t.Fatal("decompose refused")
	}
	if !tr.Equal(tup([]string{"a1", "a2"}, []string{"b1", "b2"}, []string{"c1"})) {
		t.Errorf("tr = %v", tr)
	}
	if !te.Equal(tup([]string{"a1", "a2"}, []string{"b3"}, []string{"c1"})) {
		t.Errorf("te = %v", te)
	}
	// The other decomposition from the paper: u_{A(a1)}(t3).
	tr2, te2, ok := Decompose(t3, 0, value.NewString("a1"))
	if !ok {
		t.Fatal("decompose A refused")
	}
	if !te2.Equal(tup([]string{"a1"}, []string{"b1", "b2", "b3"}, []string{"c1"})) {
		t.Errorf("te2 = %v", te2)
	}
	if !tr2.Equal(tup([]string{"a2"}, []string{"b1", "b2", "b3"}, []string{"c1"})) {
		t.Errorf("tr2 = %v", tr2)
	}
}

func TestDecomposeRefusals(t *testing.T) {
	nt := tup([]string{"a1"}, []string{"b1", "b2"})
	if _, _, ok := Decompose(nt, 0, value.NewString("a1")); ok {
		t.Error("decomposed singleton component")
	}
	if _, _, ok := Decompose(nt, 1, value.NewString("zz")); ok {
		t.Error("decomposed absent element")
	}
	if _, _, ok := Decompose(nt, 5, value.NewString("b1")); ok {
		t.Error("out-of-range component accepted")
	}
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	t1 := tup([]string{"a1", "a2"}, []string{"b1", "b2"}, []string{"c1"})
	t2 := tup([]string{"a1", "a2"}, []string{"b3"}, []string{"c1"})
	t3, _ := Compose(t1, t2, 1)
	tr, te, ok := Decompose(t3, 1, value.NewString("b3"))
	if !ok || !tr.Equal(t1) || !te.Equal(t2) {
		t.Errorf("roundtrip: tr=%v te=%v", tr, te)
	}
}

func TestAgreeExceptAndKeys(t *testing.T) {
	a := tup([]string{"x"}, []string{"p", "q"}, []string{"z"})
	b := tup([]string{"x"}, []string{"r"}, []string{"z"})
	if !a.AgreeExcept(b, 1) {
		t.Error("AgreeExcept should hold")
	}
	if a.AgreeExcept(b, 0) {
		t.Error("AgreeExcept(0) should fail: B components differ")
	}
	if a.KeyExcept(1) != b.KeyExcept(1) {
		t.Error("KeyExcept must match for composable tuples")
	}
	if a.HashExcept(1) != b.HashExcept(1) {
		t.Error("HashExcept must match for composable tuples")
	}
	if a.KeyExcept(0) == b.KeyExcept(0) {
		t.Error("KeyExcept(0) should differ")
	}
	if a.Key() == b.Key() {
		t.Error("full Key should differ")
	}
}

func TestOverlaps(t *testing.T) {
	a := tup([]string{"a1", "a2"}, []string{"b1"})
	b := tup([]string{"a2", "a3"}, []string{"b1", "b2"})
	c := tup([]string{"a9"}, []string{"b1"})
	if !a.Overlaps(b) {
		t.Error("overlapping tuples reported disjoint")
	}
	if a.Overlaps(c) {
		t.Error("disjoint tuples reported overlapping")
	}
	if a.Overlaps(tup([]string{"a1"})) {
		t.Error("degree mismatch overlap")
	}
}

func TestProject(t *testing.T) {
	nt := tup([]string{"a"}, []string{"b1", "b2"}, []string{"c"})
	p := nt.Project([]int{2, 0})
	if p.Degree() != 2 || !p.Set(0).Equal(vset.OfStrings("c")) || !p.Set(1).Equal(vset.OfStrings("a")) {
		t.Errorf("Project = %v", p)
	}
}

func TestWithSetImmutability(t *testing.T) {
	nt := tup([]string{"a"}, []string{"b"})
	nt2 := nt.WithSet(1, vset.OfStrings("b", "b2"))
	if !nt.Set(1).Equal(vset.OfStrings("b")) {
		t.Error("WithSet mutated receiver")
	}
	if !nt2.Set(1).Equal(vset.OfStrings("b", "b2")) {
		t.Error("WithSet result wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithSet(empty) should panic")
		}
	}()
	nt.WithSet(0, vset.Set{})
}

func TestRender(t *testing.T) {
	s := schema.MustOf("A", "B")
	nt := tup([]string{"a1", "a2"}, []string{"b1"})
	if got := nt.Render(s); got != "[A(a1,a2) B(b1)]" {
		t.Errorf("Render = %q", got)
	}
	if got := nt.String(); got != "[E1(a1,a2) E2(b1)]" {
		t.Errorf("String = %q", got)
	}
}

func randTuple(rng *rand.Rand, degree int) Tuple {
	sets := make([]vset.Set, degree)
	for i := range sets {
		n := 1 + rng.Intn(3)
		var atoms []value.Atom
		for j := 0; j < n; j++ {
			atoms = append(atoms, value.NewInt(int64(rng.Intn(6))))
		}
		sets[i] = vset.New(atoms...)
	}
	return MustNew(sets...)
}

// Property: for random composable pairs, Expand(compose) equals the
// union of expansions; for random tuples, decomposition then
// composition round-trips.
func TestComposeDecomposeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randTuple(rng, 3)
		c := rng.Intn(3)
		// construct a composable partner: same everywhere except c
		other := base.WithSet(c, vset.New(value.NewInt(int64(10+rng.Intn(5)))))
		comp, ok := Compose(base, other, c)
		if !ok {
			return false
		}
		union := map[string]bool{}
		for _, fl := range append(base.Expand(), other.Expand()...) {
			union[fl.Key()] = true
		}
		for _, fl := range comp.Expand() {
			if !union[fl.Key()] {
				return false
			}
			delete(union, fl.Key())
		}
		if len(union) != 0 {
			return false
		}
		// decomposition inverse (only if component has ≥2 elements)
		d := rng.Intn(3)
		if base.Set(d).Len() >= 2 {
			x := base.Set(d).At(rng.Intn(base.Set(d).Len()))
			tr, te, ok := Decompose(base, d, x)
			if !ok {
				return false
			}
			back, ok := Compose(tr, te, d)
			if !ok || !back.Equal(base) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: equal tuples share Hash and Key.
func TestHashKeyCoherence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randTuple(rng, 3)
		b := MustNew(a.Sets()...)
		return a.Equal(b) && a.Hash() == b.Hash() && a.Key() == b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
