package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "null", Bool: "bool", Int: "int", Float: "float", String: "string",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Null, Bool, Int, Float, String} {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("frob"); ok {
		t.Error("ParseKind accepted garbage")
	}
	if k, ok := ParseKind("  TEXT "); !ok || k != String {
		t.Errorf("ParseKind(text) = %v,%v", k, ok)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !NullAtom().IsNull() {
		t.Error("NullAtom not null")
	}
	if NewInt(42).Int() != 42 {
		t.Error("Int roundtrip")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float roundtrip")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str roundtrip")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool roundtrip")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int", func() { NewString("a").Int() })
	mustPanic("Float", func() { NewInt(1).Float() })
	mustPanic("Str", func() { NewInt(1).Str() })
	mustPanic("Bool", func() { NewInt(1).Bool() })
}

func TestCompareWithinKind(t *testing.T) {
	if Compare(NewInt(1), NewInt(2)) >= 0 {
		t.Error("int order")
	}
	if Compare(NewInt(2), NewInt(1)) <= 0 {
		t.Error("int order rev")
	}
	if Compare(NewInt(5), NewInt(5)) != 0 {
		t.Error("int eq")
	}
	if Compare(NewString("a"), NewString("b")) >= 0 {
		t.Error("string order")
	}
	if Compare(NewFloat(1.5), NewFloat(2.5)) >= 0 {
		t.Error("float order")
	}
	if Compare(NewBool(false), NewBool(true)) >= 0 {
		t.Error("bool order")
	}
	if Compare(NullAtom(), NullAtom()) != 0 {
		t.Error("null eq")
	}
}

func TestCompareAcrossKinds(t *testing.T) {
	// Kinds order: Null < Bool < Int < Float < String.
	ordered := []Atom{NullAtom(), NewBool(true), NewInt(0), NewFloat(-1), NewString("")}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestNaNHandling(t *testing.T) {
	nan1 := NewFloat(math.NaN())
	nan2 := NewFloat(math.NaN())
	if !Equal(nan1, nan2) {
		t.Error("NaN atoms must compare equal (set-element reflexivity)")
	}
	if Compare(nan1, NewFloat(0)) >= 0 {
		t.Error("NaN must sort before numbers")
	}
	if nan1.Hash() != nan2.Hash() {
		t.Error("NaN atoms must hash equal")
	}
	// a NaN with another payload, built without NewFloat, is still the
	// same set element
	raw := Atom{K: Float, F: math.Float64frombits(0x7ff8000000000001)}
	if !Equal(raw, nan1) || raw.Hash() != nan1.Hash() {
		t.Error("a raw NaN payload must compare and hash equal to NewFloat(NaN)")
	}
}

func TestHashConsistency(t *testing.T) {
	atoms := []Atom{
		NullAtom(), NewBool(true), NewBool(false),
		NewInt(0), NewInt(1), NewInt(-7),
		NewFloat(0), NewFloat(3.25),
		NewString(""), NewString("hello"), NewString("hellp"),
	}
	for i, a := range atoms {
		for j, b := range atoms {
			if i == j {
				if a.Hash() != b.Hash() {
					t.Errorf("hash not deterministic for %v", a)
				}
			} else if Equal(a, b) {
				t.Errorf("distinct test atoms %v,%v compare equal", a, b)
			}
		}
	}
	// different kinds with same payload must not collide in equality
	if Equal(NewInt(1), NewBool(true)) {
		t.Error("int 1 == bool true")
	}
	// Compare calls -0.0 and +0.0 equal, so they must hash equal
	if negZero := NewFloat(math.Copysign(0, -1)); !Equal(negZero, NewFloat(0)) || negZero.Hash() != NewFloat(0).Hash() {
		t.Error("-0.0 and +0.0 must compare and hash equal")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		a    Atom
		want string
	}{
		{NullAtom(), "⊥"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("c1"), "c1"},
		{NewString("has space"), `"has space"`},
		{NewString(""), `""`},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Atom
	}{
		{"42", NewInt(42)},
		{"-1", NewInt(-1)},
		{"2.5", NewFloat(2.5)},
		{"true", NewBool(true)},
		{"false", NewBool(false)},
		{"c1", NewString("c1")},
		{`"has space"`, NewString("has space")},
		{"null", NullAtom()},
		{"⊥", NullAtom()},
		{"  s1  ", NewString("s1")},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.in, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse empty should fail")
	}
	if _, err := Parse(`"unterminated`); err == nil {
		t.Error("Parse bad quote should fail")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	atoms := []Atom{
		NewInt(7), NewFloat(1.25), NewBool(true), NewString("abc"),
		NewString("with space"), NullAtom(),
	}
	for _, a := range atoms {
		back, err := Parse(a.String())
		if err != nil {
			t.Fatalf("roundtrip parse %v: %v", a, err)
		}
		if !Equal(a, back) {
			t.Errorf("roundtrip %v -> %q -> %v", a, a.String(), back)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("")
}

func TestStrings(t *testing.T) {
	ss := Strings("a", "b")
	if len(ss) != 2 || ss[0].Str() != "a" || ss[1].Str() != "b" {
		t.Errorf("Strings = %v", ss)
	}
}

// Property: Compare is a total order — antisymmetric and transitive on
// random int/string atoms, and Equal agrees with Compare==0.
func TestCompareProperties(t *testing.T) {
	gen := func(seed int64, kind int) Atom {
		switch kind % 3 {
		case 0:
			return NewInt(seed % 100)
		case 1:
			return NewFloat(float64(seed%100) / 4)
		default:
			return NewString(string(rune('a' + byte(seed%26))))
		}
	}
	f := func(s1, s2, s3 int64, k1, k2, k3 int) bool {
		a, b, c := gen(s1, k1), gen(s2, k2), gen(s3, k3)
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		if Equal(a, b) != (Compare(a, b) == 0) {
			return false
		}
		// transitivity: a<=b && b<=c => a<=c
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sorting atoms with Less produces a sequence consistent with
// Compare.
func TestLessSortsConsistently(t *testing.T) {
	atoms := []Atom{
		NewString("z"), NewInt(3), NewFloat(1.5), NewBool(true),
		NewString("a"), NewInt(-2), NullAtom(),
	}
	sort.Slice(atoms, func(i, j int) bool { return Less(atoms[i], atoms[j]) })
	for i := 1; i < len(atoms); i++ {
		if Compare(atoms[i-1], atoms[i]) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, atoms[i-1], atoms[i])
		}
	}
}
