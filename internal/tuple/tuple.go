// Package tuple implements NFR tuples and the two syntactic operations
// the paper builds everything on: composition ν (Definition 1) and
// decomposition u (Definition 2).
//
// An NFR tuple over domains E1..En is written
//
//	[E1(e11,...,e1m1) ... En(en1,...,enmn)]
//
// where each component is a non-empty set of atoms. The tuple denotes
// the set of flat (1NF) tuples obtained by picking one element per
// component — its Expansion.
package tuple

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/vset"
)

// Flat is a 1NF tuple: exactly one atom per attribute. It is the unit
// the paper's update algorithms insert and delete.
type Flat []value.Atom

// FlatOfStrings builds a flat tuple of string atoms; the common
// constructor for the paper's symbolic examples.
func FlatOfStrings(ss ...string) Flat { return Flat(value.Strings(ss...)) }

// Equal reports component-wise equality of flat tuples.
func (f Flat) Equal(g Flat) bool {
	if len(f) != len(g) {
		return false
	}
	for i := range f {
		if !value.Equal(f[i], g[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for map-based deduplication of
// flat tuples.
func (f Flat) Key() string {
	var b strings.Builder
	for i, a := range f {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteByte(byte(a.K))
		b.WriteString(a.String())
	}
	return b.String()
}

// String renders the flat tuple as (a, b, c).
func (f Flat) String() string {
	parts := make([]string, len(f))
	for i, a := range f {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Clone returns an independent copy.
func (f Flat) Clone() Flat {
	out := make(Flat, len(f))
	copy(out, f)
	return out
}

// Tuple is one NFR tuple: a set of atoms per attribute position. A
// Tuple is immutable; all operations return new tuples. The zero Tuple
// has degree 0.
type Tuple struct {
	sets []vset.Set
	hash uint64 // order-sensitive combination of component hashes
}

// New builds a tuple from component sets. Every component must be
// non-empty: the paper's tuples always carry at least one value per
// domain.
func New(sets ...vset.Set) (Tuple, error) {
	for i, s := range sets {
		if s.IsEmpty() {
			return Tuple{}, fmt.Errorf("tuple: component %d is empty", i)
		}
	}
	cp := make([]vset.Set, len(sets))
	copy(cp, sets)
	return Tuple{sets: cp, hash: hashSets(cp)}, nil
}

// Adopt builds a tuple on sets without New's copy. Every set must be
// non-empty, and the caller must not modify sets afterwards.
func Adopt(sets []vset.Set) Tuple { return Tuple{sets: sets, hash: hashSets(sets)} }

// MustNew is New but panics on error.
func MustNew(sets ...vset.Set) Tuple {
	t, err := New(sets...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromFlat lifts a 1NF tuple into an NFR tuple of singleton sets.
func FromFlat(f Flat) Tuple {
	sets := make([]vset.Set, len(f))
	for i, a := range f {
		sets[i] = vset.Single(a)
	}
	return Tuple{sets: sets, hash: hashSets(sets)}
}

func hashSets(sets []vset.Set) uint64 {
	var h uint64 = 1469598103934665603
	for _, s := range sets {
		h ^= s.Hash()
		h *= 1099511628211
	}
	return h
}

// Degree returns the number of components.
func (t Tuple) Degree() int { return len(t.sets) }

// Set returns the i-th component set.
func (t Tuple) Set(i int) vset.Set { return t.sets[i] }

// Sets returns all component sets (shared; do not modify).
func (t Tuple) Sets() []vset.Set { return t.sets }

// Hash returns an order-sensitive hash over component hashes.
func (t Tuple) Hash() uint64 { return t.hash }

// WithSet returns a copy of t with component i replaced. The new set
// must be non-empty.
func (t Tuple) WithSet(i int, s vset.Set) Tuple {
	if s.IsEmpty() {
		panic("tuple: WithSet with empty set")
	}
	sets := make([]vset.Set, len(t.sets))
	copy(sets, t.sets)
	sets[i] = s
	return Tuple{sets: sets, hash: hashSets(sets)}
}

// Equal reports component-wise set equality.
func (t Tuple) Equal(u Tuple) bool {
	if t.hash != u.hash || len(t.sets) != len(u.sets) {
		return false
	}
	for i := range t.sets {
		if !t.sets[i].Equal(u.sets[i]) {
			return false
		}
	}
	return true
}

// IsFlat reports whether every component is a singleton.
func (t Tuple) IsFlat() bool {
	for _, s := range t.sets {
		if s.Len() != 1 {
			return false
		}
	}
	return true
}

// ToFlat converts a flat tuple back to its Flat form. It panics if any
// component is not a singleton.
func (t Tuple) ToFlat() Flat {
	f := make(Flat, len(t.sets))
	for i, s := range t.sets {
		if s.Len() != 1 {
			panic("tuple: ToFlat on non-flat tuple")
		}
		f[i] = s.At(0)
	}
	return f
}

// ExpansionSize returns the number of flat tuples the tuple denotes:
// the product of component cardinalities.
func (t Tuple) ExpansionSize() int {
	n := 1
	for _, s := range t.sets {
		n *= s.Len()
	}
	return n
}

// Expand enumerates the tuple's flat expansion in lexicographic
// component order.
func (t Tuple) Expand() []Flat {
	out := make([]Flat, 0, t.ExpansionSize())
	cur := make(Flat, len(t.sets))
	var rec func(i int)
	rec = func(i int) {
		if i == len(t.sets) {
			out = append(out, cur.Clone())
			return
		}
		for _, a := range t.sets[i].Atoms() {
			cur[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// ContainsFlat reports whether flat tuple f is in the expansion of t,
// i.e. f's i-th atom is an element of t's i-th component for all i.
func (t Tuple) ContainsFlat(f Flat) bool {
	if len(f) != len(t.sets) {
		return false
	}
	for i, a := range f {
		if !t.sets[i].Contains(a) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the expansions of t and u intersect, i.e.
// every pair of corresponding components intersects.
func (t Tuple) Overlaps(u Tuple) bool {
	if len(t.sets) != len(u.sets) {
		return false
	}
	for i := range t.sets {
		if t.sets[i].Disjoint(u.sets[i]) {
			return false
		}
	}
	return true
}

// AgreeExcept reports whether t and u are set-theoretically equal on
// every component except position c — the precondition of composition
// ν_Ec (Definition 1).
func (t Tuple) AgreeExcept(u Tuple, c int) bool {
	if len(t.sets) != len(u.sets) {
		return false
	}
	for i := range t.sets {
		if i == c {
			continue
		}
		if !t.sets[i].Equal(u.sets[i]) {
			return false
		}
	}
	return true
}

// Compose implements ν_Ec(r,s) (Definition 1): if r and s agree on all
// components except c, it returns the tuple with the c-components
// unioned and ok=true. Otherwise ok=false.
func Compose(r, s Tuple, c int) (Tuple, bool) {
	if c < 0 || c >= len(r.sets) || !r.AgreeExcept(s, c) {
		return Tuple{}, false
	}
	return r.WithSet(c, r.sets[c].Union(s.sets[c])), true
}

// Decompose implements u_{Ed(x)}(t) (Definition 2): it splits element x
// out of component d, returning
//
//	tr — t with x removed from component d, and
//	te — t with component d replaced by the singleton {x}.
//
// It fails (ok=false) unless x is in the component and the component
// has at least two elements (otherwise the split would produce an
// empty component or be a no-op that loses no information).
func Decompose(t Tuple, d int, x value.Atom) (tr, te Tuple, ok bool) {
	if d < 0 || d >= len(t.sets) {
		return Tuple{}, Tuple{}, false
	}
	s := t.sets[d]
	if !s.Contains(x) || s.Len() < 2 {
		return Tuple{}, Tuple{}, false
	}
	tr = t.WithSet(d, s.Remove(x))
	te = t.WithSet(d, vset.Single(x))
	return tr, te, true
}

// HashExcept returns an order-sensitive hash of all components except
// position c. Tuples that can compose over c necessarily share this
// hash, so nesting can bucket tuples by it.
func (t Tuple) HashExcept(c int) uint64 {
	var h uint64 = 1469598103934665603
	for i, s := range t.sets {
		if i == c {
			h ^= 0x00c0ffee
		} else {
			h ^= s.Hash()
		}
		h *= 1099511628211
	}
	return h
}

// KeyExcept returns a canonical string key of all components except c,
// usable as a map key for grouping composable tuples. Two tuples share
// the key iff they agree (set-theoretically) on every component but c.
func (t Tuple) KeyExcept(c int) string {
	var b strings.Builder
	for i, s := range t.sets {
		if i > 0 {
			b.WriteByte('\x1e')
		}
		if i == c {
			b.WriteByte('*')
			continue
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Key returns a canonical string key of the whole tuple (all
// components), for relation-level deduplication.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, s := range t.sets {
		if i > 0 {
			b.WriteByte('\x1e')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Project returns the tuple restricted to the given component indexes,
// in the given order.
func (t Tuple) Project(idx []int) Tuple {
	sets := make([]vset.Set, len(idx))
	for i, j := range idx {
		sets[i] = t.sets[j]
	}
	return Tuple{sets: sets, hash: hashSets(sets)}
}

// Render prints the tuple in the paper's notation using the schema's
// attribute names: [A(a1,a2) B(b1)].
func (t Tuple) Render(s *schema.Schema) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, set := range t.sets {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s != nil && i < s.Degree() {
			b.WriteString(s.Attr(i).Name)
		} else {
			fmt.Fprintf(&b, "E%d", i+1)
		}
		b.WriteByte('(')
		b.WriteString(set.String())
		b.WriteByte(')')
	}
	b.WriteByte(']')
	return b.String()
}

// String renders the tuple with positional attribute names E1..En.
func (t Tuple) String() string { return t.Render(nil) }
