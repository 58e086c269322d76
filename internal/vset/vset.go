// Package vset implements the compound domain values of NFR tuples:
// finite sets of atoms kept in a canonical sorted order.
//
// In the paper an NFR tuple component Di(ei1, ..., eimi) is a
// non-empty set of atomic elements. Set-theoretic equality of
// components is the precondition of the composition operation ν
// (Definition 1), so Set keeps elements sorted and carries a
// precomputed order-independent hash: equality checks during nesting
// are hash-compare first, slice-compare on collision.
package vset

import (
	"strings"

	"repro/internal/value"
)

// Set is an immutable, canonically ordered set of atoms. The zero Set
// is the empty set. Callers must not mutate the slice returned by
// Atoms.
type Set struct {
	atoms []value.Atom
	hash  uint64
}

// New builds a set from the given atoms, deduplicating and sorting.
func New(atoms ...value.Atom) Set {
	if len(atoms) == 0 {
		return Set{}
	}
	cp := make([]value.Atom, len(atoms))
	copy(cp, atoms)
	sortAtoms(cp)
	cp = dedupSorted(cp)
	return fromSorted(cp)
}

// Single builds a singleton set. It is the common case for 1NF tuples
// and avoids the sort in New.
func Single(a value.Atom) Set {
	return fromSorted([]value.Atom{a})
}

// FromSorted adopts a slice that is already strictly sorted (ascending,
// no duplicates). It panics if the invariant does not hold; use it only
// on slices produced by this package or verified by the caller.
func FromSorted(atoms []value.Atom) Set {
	for i := 1; i < len(atoms); i++ {
		if value.Compare(atoms[i-1], atoms[i]) >= 0 {
			panic("vset: FromSorted input not strictly sorted")
		}
	}
	return fromSorted(atoms)
}

// Adopt adopts atoms without copying or checking them: the caller
// guarantees they are strictly ascending under value.Compare, as
// encoding.DecodeTuple does for the records it checks.
func Adopt(atoms []value.Atom) Set { return fromSorted(atoms) }

func fromSorted(atoms []value.Atom) Set {
	var h uint64
	for _, a := range atoms {
		// XOR of element hashes: order-independent, and sets are
		// duplicate-free so self-cancellation cannot occur for equal
		// sets with different layouts.
		h ^= a.Hash()
	}
	// Mix in cardinality so the empty set and unlucky XOR coincidences
	// of different sizes separate.
	h ^= uint64(len(atoms)) * 0x9e3779b97f4a7c15
	return Set{atoms: atoms, hash: h}
}

func sortAtoms(as []value.Atom) {
	// insertion sort for tiny sets (the common case: components hold a
	// handful of values), falling back to a simple quicksort.
	if len(as) <= 12 {
		for i := 1; i < len(as); i++ {
			for j := i; j > 0 && value.Less(as[j], as[j-1]); j-- {
				as[j], as[j-1] = as[j-1], as[j]
			}
		}
		return
	}
	qsort(as)
}

func qsort(as []value.Atom) {
	if len(as) <= 12 {
		sortAtoms(as)
		return
	}
	p := as[len(as)/2]
	lo, hi := 0, len(as)-1
	for lo <= hi {
		for value.Less(as[lo], p) {
			lo++
		}
		for value.Less(p, as[hi]) {
			hi--
		}
		if lo <= hi {
			as[lo], as[hi] = as[hi], as[lo]
			lo++
			hi--
		}
	}
	qsort(as[:hi+1])
	qsort(as[lo:])
}

func dedupSorted(as []value.Atom) []value.Atom {
	out := as[:0]
	for i, a := range as {
		if i == 0 || !value.Equal(as[i-1], a) {
			out = append(out, a)
		}
	}
	return out
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s.atoms) }

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return len(s.atoms) == 0 }

// Hash returns the precomputed order-independent hash.
func (s Set) Hash() uint64 { return s.hash }

// Atoms returns the elements in canonical ascending order. The slice is
// shared; callers must not modify it.
func (s Set) Atoms() []value.Atom { return s.atoms }

// At returns the i-th element in canonical order.
func (s Set) At(i int) value.Atom { return s.atoms[i] }

// Min returns the smallest element; it panics on the empty set.
func (s Set) Min() value.Atom {
	if len(s.atoms) == 0 {
		panic("vset: Min of empty set")
	}
	return s.atoms[0]
}

// Contains reports whether a is an element of s (binary search).
func (s Set) Contains(a value.Atom) bool {
	lo, hi := 0, len(s.atoms)
	for lo < hi {
		mid := (lo + hi) / 2
		if value.Less(s.atoms[mid], a) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.atoms) && value.Equal(s.atoms[lo], a)
}

// Equal reports set-theoretic equality.
func (s Set) Equal(t Set) bool {
	if s.hash != t.hash || len(s.atoms) != len(t.atoms) {
		return false
	}
	for i := range s.atoms {
		if !value.Equal(s.atoms[i], t.atoms[i]) {
			return false
		}
	}
	return true
}

// Union returns s ∪ t. It is the merge step of composition ν.
func (s Set) Union(t Set) Set {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	out := make([]value.Atom, 0, len(s.atoms)+len(t.atoms))
	i, j := 0, 0
	for i < len(s.atoms) && j < len(t.atoms) {
		switch c := value.Compare(s.atoms[i], t.atoms[j]); {
		case c < 0:
			out = append(out, s.atoms[i])
			i++
		case c > 0:
			out = append(out, t.atoms[j])
			j++
		default:
			out = append(out, s.atoms[i])
			i++
			j++
		}
	}
	out = append(out, s.atoms[i:]...)
	out = append(out, t.atoms[j:]...)
	return fromSorted(out)
}

// Diff returns s \ t. It is the split step of decomposition u.
func (s Set) Diff(t Set) Set {
	if s.IsEmpty() || t.IsEmpty() {
		return s
	}
	out := make([]value.Atom, 0, len(s.atoms))
	j := 0
	for _, a := range s.atoms {
		for j < len(t.atoms) && value.Less(t.atoms[j], a) {
			j++
		}
		if j < len(t.atoms) && value.Equal(t.atoms[j], a) {
			continue
		}
		out = append(out, a)
	}
	if len(out) == len(s.atoms) {
		return s
	}
	return fromSorted(out)
}

// Remove returns s without element a (s if a is absent).
func (s Set) Remove(a value.Atom) Set { return s.Diff(Single(a)) }

// Add returns s with element a added.
func (s Set) Add(a value.Atom) Set { return s.Union(Single(a)) }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	out := make([]value.Atom, 0, min(len(s.atoms), len(t.atoms)))
	i, j := 0, 0
	for i < len(s.atoms) && j < len(t.atoms) {
		switch c := value.Compare(s.atoms[i], t.atoms[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, s.atoms[i])
			i++
			j++
		}
	}
	return fromSorted(out)
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s.atoms) > len(t.atoms) {
		return false
	}
	i, j := 0, 0
	for i < len(s.atoms) {
		if j >= len(t.atoms) {
			return false
		}
		switch c := value.Compare(s.atoms[i], t.atoms[j]); {
		case c < 0:
			return false
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	return true
}

// Disjoint reports whether s and t share no elements.
func (s Set) Disjoint(t Set) bool {
	i, j := 0, 0
	for i < len(s.atoms) && j < len(t.atoms) {
		switch c := value.Compare(s.atoms[i], t.atoms[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return false
		}
	}
	return true
}

// String renders the set as the paper prints tuple components:
// a single element bare, several elements comma-separated.
func (s Set) String() string {
	if len(s.atoms) == 0 {
		return "∅"
	}
	var b strings.Builder
	for i, a := range s.atoms {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// OfStrings is a convenience constructor used throughout tests and the
// paper-example reproductions: a set of string atoms.
func OfStrings(ss ...string) Set { return New(value.Strings(ss...)...) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
