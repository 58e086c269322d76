// Package core implements the paper's primary contribution: NFR
// relations and the operations and properties defined on them —
// composition/decomposition at relation level, nest operations,
// canonical forms V_P (Definition 5), irreducible forms (Definition 3),
// fixedness (Definition 7) and the cardinality classification
// (Definition 6).
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/vset"
)

// Relation is an NFR: a duplicate-free set of NFR tuples over a schema,
// in insertion order. Set semantics come from an index on Tuple.Hash,
// with Tuple.Equal deciding on a collision, so atoms of different kinds
// (Int 1, String "1") make different tuples, and no string is built to
// add, find or compare one. The paper restricts attention to NFRs
// derivable from a 1NF relation by compositions and decompositions,
// which implies the tuples' flat expansions are pairwise disjoint;
// Relation preserves that invariant under every exported operation but
// does not forbid callers from constructing overlapping tuples directly
// (CheckDisjoint verifies it).
type Relation struct {
	sch    *schema.Schema
	tuples []tuple.Tuple
	index  map[uint64]int // hash -> position of the newest tuple with it
	next   []int          // next[i]: the next older tuple with tuples[i]'s hash, or -1
}

// hashMask cuts the hash a Relation indexes by; a test narrows it to
// make hashes collide.
var hashMask = ^uint64(0)

func hashOf(t tuple.Tuple) uint64 { return t.Hash() & hashMask }

// NewRelation returns an empty NFR over the schema.
func NewRelation(s *schema.Schema) *Relation {
	return &Relation{sch: s, index: make(map[uint64]int)}
}

// FromFlats builds the 1NF relation (all singleton components) holding
// the given flat tuples, deduplicated.
func FromFlats(s *schema.Schema, flats []tuple.Flat) (*Relation, error) {
	r := NewRelation(s)
	for _, f := range flats {
		if len(f) != s.Degree() {
			return nil, fmt.Errorf("core: flat tuple degree %d != schema degree %d", len(f), s.Degree())
		}
		r.Add(tuple.FromFlat(f))
	}
	return r, nil
}

// MustFromFlats is FromFlats but panics on error.
func MustFromFlats(s *schema.Schema, flats []tuple.Flat) *Relation {
	r, err := FromFlats(s, flats)
	if err != nil {
		panic(err)
	}
	return r
}

// FromTuples builds an NFR from prebuilt tuples (deduplicated).
func FromTuples(s *schema.Schema, ts []tuple.Tuple) (*Relation, error) {
	r := NewRelation(s)
	for _, t := range ts {
		if t.Degree() != s.Degree() {
			return nil, fmt.Errorf("core: tuple degree %d != schema degree %d", t.Degree(), s.Degree())
		}
		r.Add(t)
	}
	return r, nil
}

// MustFromTuples is FromTuples but panics on error.
func MustFromTuples(s *schema.Schema, ts []tuple.Tuple) *Relation {
	r, err := FromTuples(s, ts)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.sch }

// Len returns the number of NFR tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple in insertion order.
func (r *Relation) Tuple(i int) tuple.Tuple { return r.tuples[i] }

// Tuples returns a copy of the tuple list.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, len(r.tuples))
	copy(out, r.tuples)
	return out
}

// find returns the position of t and of the tuple above it in its
// hash chain, or -1.
func (r *Relation) find(t tuple.Tuple) (at, above int) {
	at, ok := r.index[hashOf(t)]
	if !ok {
		return -1, -1
	}
	for above = -1; at >= 0 && !r.tuples[at].Equal(t); above, at = at, r.next[at] {
	}
	return at, above
}

// Add inserts a tuple if not already present; it reports whether the
// relation changed.
func (r *Relation) Add(t tuple.Tuple) bool {
	h := hashOf(t)
	head, ok := r.index[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = r.next[i] {
		if r.tuples[i].Equal(t) {
			return false
		}
	}
	r.index[h] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.next = append(r.next, head)
	return true
}

// Remove deletes a tuple (by value) if present; it reports whether the
// relation changed. Order of remaining tuples is preserved, at one step
// per tuple after the removed one and no allocation.
func (r *Relation) Remove(t tuple.Tuple) bool {
	i, above := r.find(t)
	switch h := hashOf(t); {
	case i < 0:
		return false
	case above >= 0:
		r.next[above] = r.next[i]
	case r.next[i] >= 0:
		r.index[h] = r.next[i]
	default:
		delete(r.index, h)
	}
	r.tuples = slices.Delete(r.tuples, i, i+1)
	r.next = slices.Delete(r.next, i, i+1)
	// chains point down, so the positions that moved are named only by
	// the moved tuples' links and by chain heads
	for j := i; j < len(r.tuples); j++ {
		if r.next[j] > i {
			r.next[j]--
		}
		if h := hashOf(r.tuples[j]); r.index[h] == j+1 {
			r.index[h] = j
		}
	}
	return true
}

// Has reports whether the exact tuple is present.
func (r *Relation) Has(t tuple.Tuple) bool {
	at, _ := r.find(t)
	return at >= 0
}

// Clone returns an independent copy of the relation.
func (r *Relation) Clone() *Relation {
	return &Relation{sch: r.sch, tuples: slices.Clone(r.tuples), index: maps.Clone(r.index), next: slices.Clone(r.next)}
}

// IsFlat reports whether every tuple is flat (the relation is 1NF).
func (r *Relation) IsFlat() bool {
	for _, t := range r.tuples {
		if !t.IsFlat() {
			return false
		}
	}
	return true
}

// ExpansionSize returns |R*|: the total number of flat tuples denoted.
// Because expansions of tuples derived from a 1NF relation are
// pairwise disjoint, this is the plain sum of per-tuple expansion
// sizes.
func (r *Relation) ExpansionSize() int {
	n := 0
	for _, t := range r.tuples {
		n += t.ExpansionSize()
	}
	return n
}

// Expand computes R*, the unique underlying 1NF relation (Theorem 1), as
// deduplicated flat tuples in Flat.Key() order, cut from one backing array.
func (r *Relation) Expand() []tuple.Flat { return expandRows(r.sch.Degree(), r.tuples).flats() }

// ExpandRelation returns R* as a 1NF Relation.
func (r *Relation) ExpandRelation() *Relation {
	return MustFromTuples(r.sch, expandRows(r.sch.Degree(), r.tuples).tuples())
}

// ContainsFlat reports whether flat tuple f is in R*, and if so which
// NFR tuple covers it. By expansion-disjointness at most one tuple
// covers f; if several do (caller-constructed overlap) the first in
// insertion order is returned.
func (r *Relation) ContainsFlat(f tuple.Flat) (tuple.Tuple, bool) {
	for _, t := range r.tuples {
		if t.ContainsFlat(f) {
			return t, true
		}
	}
	return tuple.Tuple{}, false
}

// EquivalentTo reports whether r and s denote the same 1NF relation
// (same R*), the paper's notion of information equivalence.
func (r *Relation) EquivalentTo(s *Relation) bool {
	if !r.sch.SameAttrSet(s.sch) {
		return false
	}
	if r.ExpansionSize() != s.ExpansionSize() {
		return false
	}
	keys := make(map[string]bool)
	for _, f := range r.Expand() {
		keys[f.Key()] = true
	}
	for _, f := range s.Expand() {
		if !keys[f.Key()] {
			return false
		}
	}
	return true
}

// Equal reports whether r and s contain exactly the same NFR tuples
// (set equality of tuple sets), regardless of order.
func (r *Relation) Equal(s *Relation) bool {
	if len(r.tuples) != len(s.tuples) {
		return false
	}
	for _, t := range r.tuples {
		if !s.Has(t) {
			return false
		}
	}
	return true
}

// CheckDisjoint verifies the derivability invariant: the flat
// expansions of distinct tuples are pairwise disjoint. It returns the
// offending pair if any.
func (r *Relation) CheckDisjoint() (i, j int, ok bool) {
	for a := 0; a < len(r.tuples); a++ {
		for b := a + 1; b < len(r.tuples); b++ {
			if r.tuples[a].Overlaps(r.tuples[b]) {
				return a, b, false
			}
		}
	}
	return 0, 0, true
}

// Key returns a canonical string key of the relation's tuple set,
// independent of tuple order. Used for memoization in form searches.
func (r *Relation) Key() string {
	keys := make([]string, len(r.tuples))
	for i, t := range r.tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1d")
}

// String renders the relation as a block of tuples in the paper's
// notation, in insertion order.
func (r *Relation) String() string {
	var b strings.Builder
	for i, t := range r.tuples {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Render(r.sch))
	}
	return b.String()
}

// SortTuples orders the tuples canonically (by Key) in place; handy for
// deterministic output in tests and figure reproduction.
func (r *Relation) SortTuples() {
	ts := r.Tuples()
	slices.SortStableFunc(ts, func(a, b tuple.Tuple) int { return strings.Compare(a.Key(), b.Key()) })
	*r = *MustFromTuples(r.sch, ts)
}

// TupleOfSets is a convenience constructor for building NFR tuples from
// string sets; used heavily by tests and paper reproductions.
func TupleOfSets(components ...[]string) tuple.Tuple {
	sets := make([]vset.Set, len(components))
	for i, c := range components {
		sets[i] = vset.OfStrings(c...)
	}
	return tuple.MustNew(sets...)
}
