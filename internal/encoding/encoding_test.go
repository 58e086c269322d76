package encoding

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// decodeAtom decodes b as the one atom of a degree-1 tuple.
func decodeAtom(b []byte) (value.Atom, int, error) {
	tp, n, err := DecodeTuple(append([]byte{1, 1}, b...))
	if err != nil {
		return value.Atom{}, 0, err
	}
	return tp.Set(0).At(0), n - 2, nil
}

func TestAtomRoundTrip(t *testing.T) {
	atoms := []value.Atom{
		value.NullAtom(),
		value.NewBool(true), value.NewBool(false),
		value.NewInt(0), value.NewInt(-1), value.NewInt(1 << 40),
		value.NewFloat(0), value.NewFloat(-2.5), value.NewFloat(math.Inf(1)),
		value.NewString(""), value.NewString("hello"), value.NewString("ünïcode ✓"),
	}
	for _, a := range atoms {
		b := AppendAtom(nil, a)
		got, n, err := decodeAtom(b)
		if err != nil {
			t.Fatalf("decode %v: %v", a, err)
		}
		if n != len(b) {
			t.Errorf("atom %v: consumed %d of %d", a, n, len(b))
		}
		if !value.Equal(a, got) {
			t.Errorf("roundtrip %v -> %v", a, got)
		}
	}
	// NaN round-trips to NaN-equal atom
	b := AppendAtom(nil, value.NewFloat(math.NaN()))
	got, _, err := decodeAtom(b)
	if err != nil || !value.Equal(got, value.NewFloat(math.NaN())) {
		t.Error("NaN roundtrip failed")
	}
}

func TestDecodeAtomErrors(t *testing.T) {
	cases := [][]byte{
		{},                           // empty
		{byte(value.Int)},            // missing varint
		{byte(value.Float)},          // short float
		{byte(value.String)},         // missing length
		{byte(value.String), 5, 'a'}, // short string
		{99},                         // unknown kind
	}
	for i, b := range cases {
		if _, _, err := decodeAtom(b); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("case %d: corrupt atom: %v, want storage.ErrCorrupt", i, err)
		}
	}
}

// TestSetRoundTrip: a set decodes as the one component of a degree-1
// tuple; the empty set is no tuple component and is refused.
func TestSetRoundTrip(t *testing.T) {
	sets := []vset.Set{
		vset.OfStrings("a"),
		vset.OfStrings("x", "y", "z"),
		vset.New(value.NewInt(3), value.NewInt(1), value.NewInt(2)),
	}
	for _, s := range sets {
		b := AppendSet([]byte{1}, s)
		got, n, err := DecodeTuple(b)
		if err != nil {
			t.Fatalf("decode %v: %v", s, err)
		}
		if n != len(b) || !got.Set(0).Equal(s) {
			t.Errorf("roundtrip %v -> %v (n=%d/%d)", s, got, n, len(b))
		}
	}
	if _, _, err := DecodeTuple(AppendSet([]byte{1}, vset.Set{})); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("empty set as a component: %v, want storage.ErrCorrupt", err)
	}
}

// TestDecodeSetRefusesUnsortedSets: AppendSet writes a set strictly
// ascending, so a tuple record with a component whose atoms are out of
// order or repeated was not written by it and is refused, not repaired.
func TestDecodeSetRefusesUnsortedSets(t *testing.T) {
	set := func(atoms ...value.Atom) []byte {
		b := []byte{byte(len(atoms))}
		for _, a := range atoms {
			b = AppendAtom(b, a)
		}
		return b
	}
	cases := map[string][]byte{
		"out of order": set(value.NewString("b"), value.NewString("a")),
		"repeated":     set(value.NewInt(7), value.NewInt(7)),
	}
	for name, rec := range cases {
		tup := append(append([]byte{2}, AppendSet(nil, vset.OfStrings("x"))...), rec...)
		if tp, _, err := DecodeTuple(tup); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: DecodeTuple = %v, %v; want storage.ErrCorrupt", name, tp, err)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tp := core.TupleOfSets([]string{"a1", "a2"}, []string{"b1"}, []string{"c1", "c2", "c3"})
	b := EncodeTuple(tp)
	got, n, err := DecodeTuple(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) || !got.Equal(tp) {
		t.Errorf("roundtrip failed: %v", got)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("empty accepted")
	}
	// tuple with an empty component: degree 1, set count 0
	b := []byte{1, 0}
	if _, _, err := DecodeTuple(b); err == nil {
		t.Error("empty component accepted")
	}
	if _, _, err := DecodeTuple([]byte{200, 0}); err == nil {
		t.Error("oversized degree accepted")
	}
}

// TestDecodeSetErrors: a set record is decoded as the one component of
// a degree-1 tuple; a missing or overlong one is refused.
func TestDecodeSetErrors(t *testing.T) {
	if _, _, err := DecodeTuple([]byte{1}); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("empty input: %v, want storage.ErrCorrupt", err)
	}
	// count says 200 atoms but buffer is 2 bytes
	if _, _, err := DecodeTuple([]byte{1, 200, 1}); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("oversized count: %v, want storage.ErrCorrupt", err)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "Student", Kind: value.String},
		schema.Attribute{Name: "Age", Kind: value.Int},
		schema.Attribute{Name: "Untyped"},
	)
	b := AppendSchema(nil, s)
	got, n, err := DecodeSchema(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) || !got.Equal(s) {
		t.Errorf("schema roundtrip: %v", got)
	}
}

func TestDecodeSchemaErrors(t *testing.T) {
	if _, _, err := DecodeSchema(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, _, err := DecodeSchema([]byte{200, 1}); err == nil {
		t.Error("oversized degree accepted")
	}
	// duplicate attribute names
	b := AppendSchema(nil, schema.MustOf("A"))
	b2 := AppendSchema(nil, schema.MustOf("A"))
	bad := append([]byte{2}, append(b[1:], b2[1:]...)...)
	if _, _, err := DecodeSchema(bad); err == nil {
		t.Error("duplicate attributes accepted")
	}
}

func TestRelationRoundTrip(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := core.MustFromTuples(s, []tuple.Tuple{
		core.TupleOfSets([]string{"a1", "a2"}, []string{"b1"}),
		core.TupleOfSets([]string{"a3"}, []string{"b1", "b2"}),
	})
	var buf bytes.Buffer
	if err := WriteRelation(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) || !got.Schema().Equal(s) {
		t.Errorf("relation roundtrip:\n%v", got)
	}
}

func TestReadRelationErrors(t *testing.T) {
	if _, err := ReadRelation(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ReadRelation(strings.NewReader("XXXX?")); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte{}, Magic[:]...)
	bad = append(bad, 99) // bad version
	if _, err := ReadRelation(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}

// Property: random tuples round-trip through the binary codec.
func TestTupleRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		deg := 1 + rng.Intn(4)
		sets := make([]vset.Set, deg)
		for i := range sets {
			n := 1 + rng.Intn(4)
			var atoms []value.Atom
			for j := 0; j < n; j++ {
				switch rng.Intn(3) {
				case 0:
					atoms = append(atoms, value.NewInt(rng.Int63n(1000)-500))
				case 1:
					atoms = append(atoms, value.NewFloat(float64(rng.Intn(100))/4))
				default:
					atoms = append(atoms, value.NewString(string(rune('a'+rng.Intn(26)))))
				}
			}
			sets[i] = vset.New(atoms...)
		}
		tp := tuple.MustNew(sets...)
		got, n, err := DecodeTuple(EncodeTuple(tp))
		return err == nil && n == len(EncodeTuple(tp)) && got.Equal(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sparseRecord is one stored tuple of nfr-spine's sparse enrollment
// shape: one student, four courses, two clubs.
func sparseRecord() []byte {
	return EncodeTuple(core.TupleOfSets([]string{"s0042"}, []string{"c017", "c230", "c412", "c588"}, []string{"k03", "k44"}))
}

// TestDecodeTupleAllocs: a decoded tuple costs one string for its
// string payloads, one atom slice and one component slice, whatever its
// atom count.
func TestDecodeTupleAllocs(t *testing.T) {
	rec := sparseRecord()
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeTuple(rec); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeTuple: %v allocations, want ≤ 3", n)
	}
}

// BenchmarkDecodeTuple decodes sparseRecord.
func BenchmarkDecodeTuple(b *testing.B) {
	rec := sparseRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(rec); err != nil {
			b.Fatal(err)
		}
	}
}
