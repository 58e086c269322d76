package encoding

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// orderedCorpus spans every kind, the float specials, and the
// cross-kind boundaries value.Compare totalizes.
func orderedCorpus() []value.Atom {
	return []value.Atom{
		value.NullAtom(),
		value.NewBool(false), value.NewBool(true),
		value.NewInt(math.MinInt64), value.NewInt(-1000), value.NewInt(-1),
		value.NewInt(0), value.NewInt(1), value.NewInt(127), value.NewInt(128),
		value.NewInt(1 << 40), value.NewInt(math.MaxInt64),
		value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0xFFF8000000000001)),
		value.NewFloat(math.Inf(-1)), value.NewFloat(-math.MaxFloat64),
		value.NewFloat(-1.5), value.NewFloat(-math.SmallestNonzeroFloat64),
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
		value.NewFloat(math.SmallestNonzeroFloat64), value.NewFloat(1.5),
		value.NewFloat(math.MaxFloat64), value.NewFloat(math.Inf(1)),
		value.NewString(""), value.NewString("a"), value.NewString("ab"),
		value.NewString("b"), value.NewString("ba"), value.NewString("\xff"),
		value.NewString("\xff\x00"),
	}
}

// TestOrderedAtomIsomorphicToCompare is the codec's contract: for every
// pair in the corpus plus a fuzzed batch, bytes.Compare of encodings
// equals the sign of value.Compare — including equal-but-different-bits
// atoms (−0 vs +0, distinct NaN payloads), which must encode
// identically.
func TestOrderedAtomIsomorphicToCompare(t *testing.T) {
	atoms := orderedCorpus()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		switch rng.Intn(3) {
		case 0:
			atoms = append(atoms, value.NewInt(rng.Int63()-rng.Int63()))
		case 1:
			atoms = append(atoms, value.NewFloat((rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(40)-20))))
		default:
			b := make([]byte, rng.Intn(6))
			rng.Read(b)
			atoms = append(atoms, value.NewString(string(b)))
		}
	}
	sign := func(n int) int {
		switch {
		case n < 0:
			return -1
		case n > 0:
			return 1
		}
		return 0
	}
	for _, x := range atoms {
		for _, y := range atoms {
			want := sign(value.Compare(x, y))
			got := sign(bytes.Compare(AppendOrderedAtom(nil, x), AppendOrderedAtom(nil, y)))
			if got != want {
				t.Fatalf("order mismatch: Compare(%v, %v) = %d, key order %d", x, y, want, got)
			}
		}
	}
}

// TestOrderedAtomRoundTrip checks that the ordered key loses nothing
// but the equivalences the codec collapses (−0 → +0, NaN payloads →
// canonical NaN): decodeOrderedAtom, its inverse, must return an atom
// that compares equal to the original and re-encodes to the same bytes.
func TestOrderedAtomRoundTrip(t *testing.T) {
	for _, a := range orderedCorpus() {
		key := AppendOrderedAtom(nil, a)
		back := decodeOrderedAtom(t, key)
		if value.Compare(a, back) != 0 {
			t.Fatalf("round trip of %v compares unequal: %v", a, back)
		}
		if again := AppendOrderedAtom(nil, back); !bytes.Equal(again, key) {
			t.Fatalf("re-encode of %v diverged: %x vs %x", a, again, key)
		}
	}
}

// decodeOrderedAtom inverts AppendOrderedAtom. The string payload
// consumes the whole remainder of b, so a buffer holds exactly one
// ordered atom.
func decodeOrderedAtom(t *testing.T, b []byte) value.Atom {
	t.Helper()
	if len(b) == 0 {
		t.Fatal("empty ordered atom")
	}
	k, payload := value.Kind(b[0]), b[1:]
	switch {
	case k == value.Null && len(payload) == 0:
		return value.NullAtom()
	case k == value.Bool && len(payload) == 1 && payload[0] <= 1:
		return value.NewBool(payload[0] == 1)
	case k == value.Int && len(payload) == 8:
		return value.NewInt(int64(binary.BigEndian.Uint64(payload) ^ (1 << 63)))
	case k == value.Float && len(payload) == 8:
		enc := binary.BigEndian.Uint64(payload)
		switch {
		case enc == 0:
			return value.NewFloat(math.NaN())
		case enc&(1<<63) != 0:
			return value.NewFloat(math.Float64frombits(enc &^ (1 << 63)))
		default:
			return value.NewFloat(math.Float64frombits(^enc))
		}
	case k == value.String:
		return value.NewString(string(payload))
	}
	t.Fatalf("malformed ordered atom %x", b)
	return value.Atom{}
}
