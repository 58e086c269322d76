package update

import (
	"repro/internal/tuple"
	"repro/internal/value"
)

// The indexed maintainer prunes candt and searcht with two indexes over
// the stored tuples, both on the LAST-nested attribute L = order[n−1]:
//
//	byAtom  atom a → the tuples whose L-component contains a
//	byRest  Tuple.HashExcept(L) → the tuples with that hash, i.e. (up
//	        to collisions) the tuples that agree on every component
//	        but L
//
// Soundness. A candidate of the floating tuple t at nest position k
// (see the package comment) equals t on positions < k, is disjoint
// from it at k, and contains t's component on positions > k.
//
//   - k = n−1: the candidate equals t on every position but n−1, so it
//     shares t.HashExcept(L) and sits in that byRest bucket. In a
//     canonical form at most one stored tuple does (two would compose
//     on L), so the bucket holds one tuple plus hash collisions.
//   - k < n−1: position n−1 is later than k, so the candidate contains
//     every atom of t's L-component and sits in the byAtom list of each
//     of them; the shortest of those lists covers all such candidates.
//   - searcht: the covering tuple of a flat f contains f's atom on
//     every attribute, in particular on L.
//
// Degree 1: L is the only attribute; a candidate is disjoint from t on
// it and agrees with t on nothing else, so HashExcept is one constant
// and byRest's single bucket holds the canonical form's single tuple.
// Degree 2 with order (E1, E2): byRest groups tuples by their
// E1-component (the k = 1 candidates), byAtom finds the tuples whose
// E2-component contains t's (the k = 0 candidates).
//
// Both indexes are ordered: a bucket lists its tuples in the order they
// were added, so the scan order — and with it Stats.CandidateScans —
// repeats exactly from run to run.

// buckets maps a key to the stored tuples filed under it, oldest first.
// Tuples are identified by Tuple.Equal (hash first, components on a
// hash match), never by a rendered key.
type buckets[K comparable] map[K][]tuple.Tuple

func (b buckets[K]) add(k K, t tuple.Tuple) { b[k] = append(b[k], t) }

func (b buckets[K]) remove(k K, t tuple.Tuple) {
	list := b[k]
	for i := range list {
		if !list[i].Equal(t) {
			continue
		}
		if len(list) == 1 {
			delete(b, k)
			return
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = tuple.Tuple{}
		b[k] = list[:len(list)-1]
		return
	}
}

// tupleIndex is the pair of indexes described above.
type tupleIndex struct {
	last   int // the last-nested attribute L
	byAtom buckets[value.Atom]
	byRest buckets[uint64]
}

func newTupleIndex(last int) *tupleIndex {
	return &tupleIndex{last: last, byAtom: make(buckets[value.Atom]), byRest: make(buckets[uint64])}
}

// atomKey is a's key in byAtom: the atom itself, which Go compares the
// way value.Equal does — except NaN, which as a map key equals nothing,
// itself included, and so gets one fixed stand-in.
func atomKey(a value.Atom) value.Atom {
	if a.K == value.Float && a.F != a.F {
		return value.Atom{K: value.Float, S: "NaN"}
	}
	return a
}

func (ix *tupleIndex) add(t tuple.Tuple) {
	for _, a := range t.Set(ix.last).Atoms() {
		ix.byAtom.add(atomKey(a), t)
	}
	ix.byRest.add(t.HashExcept(ix.last), t)
}

func (ix *tupleIndex) remove(t tuple.Tuple) {
	for _, a := range t.Set(ix.last).Atoms() {
		ix.byAtom.remove(atomKey(a), t)
	}
	ix.byRest.remove(t.HashExcept(ix.last), t)
}

// containing returns the tuples whose L-component contains a.
func (ix *tupleIndex) containing(a value.Atom) []tuple.Tuple { return ix.byAtom[atomKey(a)] }

// containingAll returns a list covering the tuples whose L-component
// contains all of t's: the shortest of its atoms' lists.
func (ix *tupleIndex) containingAll(t tuple.Tuple) []tuple.Tuple {
	var best []tuple.Tuple
	for i, a := range t.Set(ix.last).Atoms() {
		if list := ix.containing(a); i == 0 || len(list) < len(best) {
			best = list
		}
	}
	return best
}

// agreeingExceptLast returns the bucket covering the tuples that agree
// with t on every component but L.
func (ix *tupleIndex) agreeingExceptLast(t tuple.Tuple) []tuple.Tuple {
	return ix.byRest[t.HashExcept(ix.last)]
}
