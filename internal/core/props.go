package core

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/value"
)

// Cardinality is the Definition-6 classification of an attribute's
// value-to-tuple correspondence in an NFR.
type Cardinality uint8

// The four Definition-6 classes. OneOne is the degenerate case of both
// NOne and OneN; MN is the general case. (The paper classifies per
// value; the attribute-level class reported here is the join over all
// values: "appears in more than one tuple" and/or "appears inside a
// compound component".)
const (
	OneOne Cardinality = iota // 1:1 — every value in exactly one tuple, always a singleton component
	NOne                      // n:1 — values confined to one tuple but grouped into compound components
	OneN                      // 1:n — values repeat across tuples but only as singleton components
	MN                        // m:n — values repeat across tuples and appear in compound components
)

// String renders the class in the paper's notation.
func (c Cardinality) String() string {
	switch c {
	case OneOne:
		return "1:1"
	case NOne:
		return "n:1"
	case OneN:
		return "1:n"
	case MN:
		return "m:n"
	default:
		return fmt.Sprintf("card(%d)", uint8(c))
	}
}

// AtMost reports whether c is a special case of d in the Definition-6
// hierarchy: 1:1 ⊑ n:1, 1:1 ⊑ 1:n, and everything ⊑ m:n. Theorem 3's
// "Ei:R' = 1:n" is checked as AtMost(OneN): the FD guarantees no
// grouping on Ei, while actual cross-tuple repetition depends on the
// data.
func (c Cardinality) AtMost(d Cardinality) bool {
	if c == d || d == MN {
		return true
	}
	return c == OneOne
}

// ValueCardinality classifies one value e of attribute i per the
// per-value reading of Definition 6: whether e appears in more than
// one tuple (the :n side) and whether it appears inside a compound
// component (the m:/n: side). It reports OneOne when e does not occur
// at all.
func (r *Relation) ValueCardinality(i int, e value.Atom) Cardinality {
	occurrences := 0
	grouped := false
	for _, t := range r.tuples {
		s := t.Set(i)
		if !s.Contains(e) {
			continue
		}
		occurrences++
		if s.Len() >= 2 {
			grouped = true
		}
	}
	switch {
	case occurrences <= 1 && !grouped:
		return OneOne
	case occurrences <= 1 && grouped:
		return NOne
	case occurrences > 1 && !grouped:
		return OneN
	default:
		return MN
	}
}

// AttrCardinality classifies attribute i of r per Definition 6.
func (r *Relation) AttrCardinality(i int) Cardinality {
	multi := false   // some value appears in more than one tuple
	grouped := false // some value appears in a component of size >= 2
	seen := make(map[string]bool)
	for _, t := range r.tuples {
		s := t.Set(i)
		if s.Len() >= 2 {
			grouped = true
		}
		for _, a := range s.Atoms() {
			k := a.String()
			if seen[k] {
				multi = true
			}
			seen[k] = true
		}
	}
	switch {
	case !multi && !grouped:
		return OneOne
	case !multi && grouped:
		return NOne
	case multi && !grouped:
		return OneN
	default:
		return MN
	}
}

// Cardinalities returns the Definition-6 class of every attribute.
func (r *Relation) Cardinalities() []Cardinality {
	out := make([]Cardinality, r.sch.Degree())
	for i := range out {
		out[i] = r.AttrCardinality(i)
	}
	return out
}

// FixedOn implements Definition 7: r is fixed on the attribute set F
// when every combination of single values f1..fk (fi drawn from the
// Fi-component) identifies at most one tuple. Equivalently: no two
// distinct tuples have pairwise-intersecting components on every
// attribute of F. F must be non-empty and name attributes of the
// schema.
func (r *Relation) FixedOn(attrs schema.AttrSet) bool {
	idx := make([]int, 0, attrs.Len())
	for _, name := range attrs.Sorted() {
		i := r.sch.Index(name)
		if i < 0 {
			panic(fmt.Sprintf("core: FixedOn unknown attribute %q", name))
		}
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		// An empty combination appears in every tuple; fixed only if
		// the relation has at most one tuple.
		return r.Len() <= 1
	}
	for a := 0; a < len(r.tuples); a++ {
		for b := a + 1; b < len(r.tuples); b++ {
			joint := true
			for _, i := range idx {
				if r.tuples[a].Set(i).Disjoint(r.tuples[b].Set(i)) {
					joint = false
					break
				}
			}
			if joint {
				return false
			}
		}
	}
	return true
}

// FixedDomains returns every single attribute on which r is fixed; the
// building block for "fixed on at most n-1 domains" (Theorem 5)
// reporting.
func (r *Relation) FixedDomains() []string {
	var out []string
	for i := 0; i < r.sch.Degree(); i++ {
		name := r.sch.Attr(i).Name
		if r.FixedOn(schema.NewAttrSet(name)) {
			out = append(out, name)
		}
	}
	return out
}

// MaxFixedSet greedily reports a maximal set of attributes r is fixed
// on, preferring schema order. Note fixedness is monotone: if r is
// fixed on F it is fixed on any superset of F, so the interesting
// question is which minimal sets work; singles are reported by
// FixedDomains.
func (r *Relation) MaxFixedSet() schema.AttrSet {
	// Because fixedness is superset-monotone, the whole schema is fixed
	// iff the relation has no two tuples overlapping everywhere — which
	// holds for all disjoint-expansion NFRs. Report the set of singles
	// plus, when no single works, the full schema if fixed.
	singles := r.FixedDomains()
	if len(singles) > 0 {
		return schema.NewAttrSet(singles...)
	}
	all := schema.NewAttrSet(r.sch.Names()...)
	if r.FixedOn(all) {
		return all
	}
	return schema.NewAttrSet()
}

// IsCanonical reports whether r is the canonical form for some
// permutation of its schema, returning the first such permutation.
// Exhaustive over n! permutations; degree must be small.
func (r *Relation) IsCanonical() (schema.Permutation, bool) {
	for _, p := range schema.AllPermutations(r.sch.Degree()) {
		if r.IsCanonicalFor(p) {
			return p, true
		}
	}
	return nil, false
}
