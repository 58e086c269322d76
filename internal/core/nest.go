package core

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/vset"
)

// Nest implements the nest operation ν_Ei (Definition 4): successive
// compositions over attribute i applied as many times as possible.
// Theorem 2 guarantees the result is independent of the order in which
// tuple pairs are composed, so Nest groups tuples by set-equality of
// the remaining components (hash grouping) and unions the i-th
// components inside each group — an O(m) realization of the O(m²)
// pairwise definition (NestPairwise provides the literal one).
//
// It returns the nested relation and the number of compositions
// performed (group size − 1 summed over groups), the cost unit of the
// paper's complexity analysis.
func (r *Relation) Nest(i int) (*Relation, int) {
	if i < 0 || i >= r.sch.Degree() {
		panic(fmt.Sprintf("core: Nest attribute %d out of range", i))
	}
	ts, comps := nest(r.tuples, i)
	return MustFromTuples(r.sch, ts), comps
}

// NestPairwise is the literal Definition-4 nest: repeatedly scan for a
// composable pair over attribute i and compose it, until no pair
// remains. pairOrder selects which pair to compose next given the
// current tuple list; nil means first-found. It exists to validate
// Theorem 2 (the result must equal Nest regardless of order) and as the
// ablation baseline for the hash-grouping optimization.
func (r *Relation) NestPairwise(i int, pairOrder func(ts []tuple.Tuple) (int, int, bool)) (*Relation, int) {
	ts := r.Tuples()
	comps := 0
	pick := pairOrder
	if pick == nil {
		pick = func(ts []tuple.Tuple) (int, int, bool) {
			for a := 0; a < len(ts); a++ {
				for b := a + 1; b < len(ts); b++ {
					if ts[a].AgreeExcept(ts[b], i) {
						return a, b, true
					}
				}
			}
			return 0, 0, false
		}
	}
	for {
		a, b, ok := pick(ts)
		if !ok {
			break
		}
		merged, ok := tuple.Compose(ts[a], ts[b], i)
		if !ok {
			panic("core: pairOrder returned non-composable pair")
		}
		comps++
		// replace a with merged, delete b
		ts[a] = merged
		ts = append(ts[:b], ts[b+1:]...)
	}
	return MustFromTuples(r.sch, ts), comps
}

// Canonical computes the canonical form V_P(R) (Definition 5): nest
// over p[0] first, then p[1], and so on. The paper's Example 2 fixes
// this reading: V_ABC(R3) nests A first and yields the printed R5.
// It returns the canonical relation and the total composition count.
func (r *Relation) Canonical(p schema.Permutation) (*Relation, int) {
	return canonicalOf(r.sch, r.tuples, p)
}

// CanonicalFromFlats is the common pipeline: expand to R* first, then
// build V_P(R*). Starting from R* makes the result depend only on the
// information content (Theorem 2), not on r's current grouping.
func (r *Relation) CanonicalFromFlats(p schema.Permutation) (*Relation, int) {
	return canonicalOf(r.sch, expandRows(r.sch.Degree(), r.tuples).tuples(), p)
}

// CanonicalWhere is CanonicalFromFlats of the part of R* that keep
// accepts; keep sees each flat tuple once, in Expand order, as a tuple
// of singleton sets.
func (r *Relation) CanonicalWhere(p schema.Permutation, keep func(tuple.Tuple) (bool, error)) (*Relation, error) {
	ts := expandRows(r.sch.Degree(), r.tuples).tuples()
	kept := ts[:0]
	for _, t := range ts {
		ok, err := keep(t)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, t)
		}
	}
	rel, _ := canonicalOf(r.sch, kept, p)
	return rel, nil
}

// Unnest fully unnests attribute i: every tuple with an m-element i-th
// component is replaced by m tuples with singleton components — the
// exhaustive application of decomposition u on that attribute
// (Jaeschke–Schek's μ operator). It is the inverse of Nest only on
// relations where no information was grouped on other attributes.
func (r *Relation) Unnest(i int) *Relation {
	if i < 0 || i >= r.sch.Degree() {
		panic(fmt.Sprintf("core: Unnest attribute %d out of range", i))
	}
	out := NewRelation(r.sch)
	for _, t := range r.tuples {
		for _, a := range t.Set(i).Atoms() {
			out.Add(t.WithSet(i, vset.Single(a)))
		}
	}
	return out
}

// ComposablePair reports whether any composition applies to the
// relation, returning one applicable (tuple index, tuple index,
// attribute) triple.
func (r *Relation) ComposablePair() (a, b, attr int, ok bool) {
	// The first pair composablePairs finds. Its grouping keeps
	// IsIrreducible O(n·m) instead of O(n·m²).
	composablePairs(r.tuples, r.sch.Degree(), func(x, y, i int) bool {
		a, b, attr, ok = x, y, i, true
		return false
	})
	return a, b, attr, ok
}

// IsIrreducible reports whether no composition applies (Definition 3).
func (r *Relation) IsIrreducible() bool {
	_, _, _, ok := r.ComposablePair()
	return !ok
}
