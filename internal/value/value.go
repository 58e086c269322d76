// Package value defines the atomic values that populate the domains of
// non-first-normal-form relations (NFRs).
//
// The paper (Arisawa, Moriya, Miura; VLDB 1983) defines NFRs over
// "simple domains (or sets of atomic elements)". Atoms are therefore
// scalar and totally ordered within a kind; an Atom is a small
// comparable struct so it can serve as a map key and be hashed cheaply.
package value

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types an Atom may hold.
type Kind uint8

// The supported atom kinds. Null sorts before everything else; kinds
// sort in declaration order so atoms of mixed kinds still have a total
// order (needed for canonical set representations).
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name (as produced by Kind.String) back to a
// Kind. It reports false for unknown names.
func ParseKind(s string) (Kind, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return Null, true
	case "bool":
		return Bool, true
	case "int":
		return Int, true
	case "float":
		return Float, true
	case "string", "str", "text":
		return String, true
	default:
		return Null, false
	}
}

// Atom is one atomic domain element. The zero Atom is the null atom.
//
// Atom is comparable (no slices or maps inside), so atoms can be used
// as map keys directly. Exactly one of the payload fields is
// meaningful, selected by K.
type Atom struct {
	K Kind
	I int64   // payload when K == Int or K == Bool (0/1)
	F float64 // payload when K == Float
	S string  // payload when K == String
}

// NullAtom returns the null atom.
func NullAtom() Atom { return Atom{} }

// NewInt returns an integer atom.
func NewInt(v int64) Atom { return Atom{K: Int, I: v} }

// NewFloat returns a floating-point atom. NaN is normalized to a single
// canonical NaN payload so that equal-looking atoms compare equal.
func NewFloat(v float64) Atom {
	if math.IsNaN(v) {
		v = math.NaN()
	}
	return Atom{K: Float, F: v}
}

// NewString returns a string atom.
func NewString(v string) Atom { return Atom{K: String, S: v} }

// NewBool returns a boolean atom.
func NewBool(v bool) Atom {
	var i int64
	if v {
		i = 1
	}
	return Atom{K: Bool, I: i}
}

// IsNull reports whether a is the null atom.
func (a Atom) IsNull() bool { return a.K == Null }

// Int returns the integer payload; it panics if the atom is not an Int.
func (a Atom) Int() int64 {
	if a.K != Int {
		panic(fmt.Sprintf("value: Int() on %s atom", a.K))
	}
	return a.I
}

// Float returns the float payload; it panics if the atom is not a Float.
func (a Atom) Float() float64 {
	if a.K != Float {
		panic(fmt.Sprintf("value: Float() on %s atom", a.K))
	}
	return a.F
}

// Str returns the string payload; it panics if the atom is not a String.
func (a Atom) Str() string {
	if a.K != String {
		panic(fmt.Sprintf("value: Str() on %s atom", a.K))
	}
	return a.S
}

// Bool returns the boolean payload; it panics if the atom is not a Bool.
func (a Atom) Bool() bool {
	if a.K != Bool {
		panic(fmt.Sprintf("value: Bool() on %s atom", a.K))
	}
	return a.I != 0
}

// Compare totally orders atoms: first by kind, then by payload. Floats
// order NaN before all other floats. The result is -1, 0 or +1.
func Compare(a, b Atom) int {
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case Null:
		return 0
	case Bool, Int:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float:
		an, bn := math.IsNaN(a.F), math.IsNaN(b.F)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	default:
		panic(fmt.Sprintf("value: unknown kind %d", a.K))
	}
}

// Equal reports whether two atoms are identical. NaN floats are equal
// to each other (atoms are set elements, so reflexive equality is
// required).
func Equal(a, b Atom) bool { return Compare(a, b) == 0 }

// Less reports whether a orders strictly before b.
func Less(a, b Atom) bool { return Compare(a, b) < 0 }

// hashSeed hashes the kind byte and fixed-width payload of non-string
// atoms; stringSeed hashes string payloads, so a string never collides
// by construction with the bytes of another kind.
var hashSeed, stringSeed = maphash.MakeSeed(), maphash.MakeSeed()

// Hash returns a 64-bit hash of the atom, stable within a process run.
// It makes one maphash.Bytes or maphash.String call and builds no hash
// state.
func (a Atom) Hash() uint64 {
	var buf [9]byte
	buf[0] = byte(a.K)
	switch a.K {
	case Bool, Int:
		binary.LittleEndian.PutUint64(buf[1:], uint64(a.I))
	case Float:
		f := a.F
		if math.IsNaN(f) {
			f = math.NaN()
		} else if f == 0 {
			f = 0 // -0.0, which Compare calls equal to +0.0
		}
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
	case String:
		return maphash.String(stringSeed, a.S)
	default:
		return maphash.Bytes(hashSeed, buf[:1])
	}
	return maphash.Bytes(hashSeed, buf[:])
}

// String renders the atom the way the paper prints domain elements:
// bare for identifiers/numbers, quoted only when a string contains
// characters that would be ambiguous in a tuple display.
func (a Atom) String() string {
	switch a.K {
	case Null:
		return "⊥"
	case Bool:
		if a.I != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(a.I, 10)
	case Float:
		return strconv.FormatFloat(a.F, 'g', -1, 64)
	case String:
		if needsQuote(a.S) {
			return strconv.Quote(a.S)
		}
		return a.S
	default:
		return fmt.Sprintf("atom(%d)", uint8(a.K))
	}
}

func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_', r == '-', r == '.':
		default:
			return true
		}
	}
	return false
}

// Parse interprets a textual literal as an atom. Quoted strings use Go
// syntax; "true"/"false" parse as bools; integer and float literals are
// numeric; everything else is a bare string. It is the inverse of
// String for atoms whose rendering is unambiguous.
func Parse(s string) (Atom, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return Atom{}, fmt.Errorf("value: empty literal")
	}
	if t == "⊥" || strings.EqualFold(t, "null") {
		return NullAtom(), nil
	}
	if t == "true" {
		return NewBool(true), nil
	}
	if t == "false" {
		return NewBool(false), nil
	}
	if t[0] == '"' {
		u, err := strconv.Unquote(t)
		if err != nil {
			return Atom{}, fmt.Errorf("value: bad string literal %q: %w", s, err)
		}
		return NewString(u), nil
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return NewInt(i), nil
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return NewFloat(f), nil
	}
	return NewString(t), nil
}

// MustParse is Parse but panics on error; intended for literals in
// tests and examples.
func MustParse(s string) Atom {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Strings converts a list of bare strings into string atoms. It is the
// common constructor for the paper's symbolic examples (s1, c1, b2...).
func Strings(ss ...string) []Atom {
	out := make([]Atom, len(ss))
	for i, s := range ss {
		out[i] = NewString(s)
	}
	return out
}
