// Package core implements the paper's primary contribution: NFR
// relations and the operations and properties defined on them —
// composition/decomposition at relation level, nest operations,
// canonical forms V_P (Definition 5), irreducible forms (Definition 3),
// fixedness (Definition 7) and the cardinality classification
// (Definition 6).
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/vset"
)

// Relation is an NFR: a duplicate-free set of NFR tuples over a schema.
// Tuples are kept in insertion order; a key index enforces set
// semantics. The paper restricts attention to NFRs derivable from a
// 1NF relation by compositions and decompositions, which implies the
// tuples' flat expansions are pairwise disjoint; Relation preserves
// that invariant under every exported operation but does not forbid
// callers from constructing overlapping tuples directly (CheckDisjoint
// verifies it).
type Relation struct {
	sch    *schema.Schema
	tuples []tuple.Tuple
	keys   []string       // keys[i] = tuples[i].Key(); nil until a Remove needs them
	index  map[string]int // tuple.Key() -> position in tuples
}

// NewRelation returns an empty NFR over the schema.
func NewRelation(s *schema.Schema) *Relation {
	return &Relation{sch: s, index: make(map[string]int)}
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

// Add inserts a tuple if not already present; it reports whether the
// relation changed.
func (r *Relation) Add(t tuple.Tuple) bool {
	k := t.Key()
	if _, dup := r.index[k]; dup {
		return false
	}
	r.index[k] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	if r.keys != nil {
		r.keys = append(r.keys, k)
	}
	return true
}

// Remove deletes a tuple (by value) if present; it reports whether the
// relation changed. Order of remaining tuples is preserved.
func (r *Relation) Remove(t tuple.Tuple) bool {
	k := t.Key()
	i, ok := r.index[k]
	if !ok {
		return false
	}
	if r.keys == nil {
		r.keys = make([]string, len(r.tuples))
		for key, j := range r.index {
			r.keys[j] = key
		}
	}
	delete(r.index, k)
	r.tuples = append(r.tuples[:i], r.tuples[i+1:]...)
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	for j := i; j < len(r.keys); j++ {
		r.index[r.keys[j]] = j
	}
	return true
}

// Has reports whether the exact tuple is present.
func (r *Relation) Has(t tuple.Tuple) bool {
	_, ok := r.index[t.Key()]
	return ok
}

// Clone returns an independent copy of the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.sch)
	out.tuples = make([]tuple.Tuple, len(r.tuples))
	copy(out.tuples, r.tuples)
	out.keys = append(out.keys, r.keys...)
	for k, v := range r.index {
		out.index[k] = v
	}
	return out
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
	for k := range r.index {
		if _, ok := s.index[k]; !ok {
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
	keys := make([]string, 0, len(r.tuples))
	for k := range r.index {
		keys = append(keys, k)
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
	sort.Slice(r.tuples, func(i, j int) bool {
		return r.tuples[i].Key() < r.tuples[j].Key()
	})
	for i, t := range r.tuples {
		r.index[t.Key()] = i
	}
	r.keys = nil
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
