package encoding

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/value"
)

// matchAtoms collide wherever two atoms could be confused: Int 1 beside
// String "1", Bool true beside String "true", both float zeros (equal
// atoms, different bits), NaN (equal to itself as an atom), null, the
// empty string, and strings whose length takes one varint byte and two.
var matchAtoms = []value.Atom{
	value.NewInt(1), value.NewString("1"), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.NaN()), value.NullAtom(), value.NewBool(true), value.NewString("true"),
	value.NewInt(2), value.NewString(""), value.NewString(strings.Repeat("x", 5000)), value.NewString("c"),
}

// matchTests decodes spec as tests, three bytes each: a component in
// -1..3 (so some name none the tuple has), an Accept mask and an atom
// of matchAtoms.
func matchTests(spec []byte) []AtomTest {
	var tests []AtomTest
	for len(spec) >= 3 && len(tests) < MaxAtomTests {
		tests = append(tests, AtomTest{
			Comp:   int(spec[0]%5) - 1,
			Accept: spec[1] & (AcceptLess | AcceptEqual | AcceptGreater),
			Val:    matchAtoms[int(spec[2])%len(matchAtoms)],
		})
		spec = spec[3:]
	}
	return tests
}

// evalTests is the tests' meaning on a decoded tuple: each holds when
// some atom of its component compares to its value with an accepted
// outcome.
func evalTests(tp tuple.Tuple, tests []AtomTest) bool {
	for _, test := range tests {
		hit := false
		if test.Comp >= 0 && test.Comp < tp.Degree() {
			for _, a := range tp.Set(test.Comp).Atoms() {
				hit = hit || test.Accept&(1<<(value.Compare(a, test.Val)+1)) != 0
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// record encodes a tuple of the given components, each a list of
// atoms written as they stand, unsorted and repeated atoms included.
func record(comps ...[]value.Atom) []byte {
	b := []byte{byte(len(comps))}
	for _, c := range comps {
		b = append(b, byte(len(c)))
		for _, a := range c {
			b = AppendAtom(b, a)
		}
	}
	return b
}

// FuzzMatchTuple holds MatchTuple to DecodeTuple: on any record and any
// tests it errs, with storage.ErrCorrupt, exactly when DecodeTuple errs, leaves
// bytes after the tuple or decodes another degree, and otherwise
// answers what the tests say of the decoded tuple. Every set
// DecodeTuple returns is strictly ascending under value.Compare, the
// order the shared walk checks on encoded atoms.
func FuzzMatchTuple(f *testing.F) {
	a := func(i int) value.Atom { return matchAtoms[i] }
	all := []byte{0, 7, 0, 1, 7, 1, 2, 2, 2, 3, 1, 3, 4, 4, 11}
	seeds := []struct {
		rec []byte
		deg int
	}{
		{record([]value.Atom{a(0), a(1)}, []value.Atom{a(1)}), 2},       // Int 1 beside String "1"
		{record([]value.Atom{a(3), a(2)}), 1},                           // -0.0 and +0.0: one atom twice
		{record([]value.Atom{a(4), a(4)}), 1},                           // two NaNs: one atom twice
		{record([]value.Atom{a(5), a(6), a(7)}, []value.Atom{a(5)}), 2}, // null, and true beside "true"
		{record([]value.Atom{a(9), a(11), a(10)}), 1},                   // empty and 5 000-byte strings
		{record([]value.Atom{a(11)}, []value.Atom{a(0)}), 3},            // another degree
		{append(record([]value.Atom{a(0)}), 0), 1},                      // a trailing byte
		{[]byte{1, 1, byte(value.Int), 0x80}, 1},                        // a truncated varint
		{[]byte{1, 1, byte(value.String), 0x85}, 1},                     // a truncated string length
	}
	for _, s := range seeds {
		f.Add(s.rec, s.deg, all)
		f.Add(s.rec, s.deg, []byte{1, byte(AcceptEqual), 0})
	}
	f.Fuzz(func(t *testing.T, rec []byte, deg int, spec []byte) {
		tests := matchTests(spec)
		tp, n, derr := DecodeTuple(rec)
		wantErr := derr != nil || n != len(rec) || tp.Degree() != deg
		ok, err := MatchTuple(rec, deg, tests)
		if (err != nil) != wantErr {
			t.Fatalf("MatchTuple err = %v; DecodeTuple err = %v, %d of %d bytes, degree %d of %d",
				err, derr, n, len(rec), tp.Degree(), deg)
		}
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("MatchTuple err = %v, want storage.ErrCorrupt", err)
			}
			return
		}
		if want := evalTests(tp, tests); ok != want {
			t.Fatalf("MatchTuple(%v, %+v) = %v, the decoded tuple says %v", tp, tests, ok, want)
		}
		for i := 0; i < tp.Degree(); i++ {
			atoms := tp.Set(i).Atoms()
			for j := 1; j < len(atoms); j++ {
				if value.Compare(atoms[j-1], atoms[j]) >= 0 {
					t.Fatalf("component %d: atom %d is not above atom %d: %v", i, j, j-1, atoms)
				}
			}
		}
	})
}

// TestMatchTupleAllocs: testing a record allocates nothing, whether it
// passes or not.
func TestMatchTupleAllocs(t *testing.T) {
	rec := sparseRecord()
	for _, v := range []string{"c230", "c300", strings.Repeat("c", 5000)} {
		tests := []AtomTest{{Comp: 1, Val: value.NewString(v), Accept: AcceptEqual}}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := MatchTuple(rec, 3, tests); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("MatchTuple for a %d-byte string: %v allocations, want 0", len(v), n)
		}
	}
}

// BenchmarkMatchTuple tests sparseRecord against a CONTAINS on its
// four-course component that it fails, the heap scan's common case.
func BenchmarkMatchTuple(b *testing.B) {
	rec := sparseRecord()
	tests := []AtomTest{{Comp: 1, Val: value.NewString("c300"), Accept: AcceptEqual}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, err := MatchTuple(rec, 3, tests); ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}
