package algebra

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// Select returns the tuples of r satisfying the predicate (tuple-level
// selection: predicates see whole set components).
func Select(r *core.Relation, p Pred) (*core.Relation, error) {
	out := core.NewRelation(r.Schema())
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		ok, err := p.Eval(r.Schema(), t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Add(t)
		}
	}
	return out, nil
}

// SelectFlat filters R* by the predicate applied to each flat tuple
// (lifted to singleton components) and re-nests the survivors under
// the given order — classical 1NF selection with an NFR result.
func SelectFlat(r *core.Relation, p Pred, order schema.Permutation) (*core.Relation, error) {
	return r.CanonicalWhere(order, func(t tuple.Tuple) (bool, error) { return p.Eval(r.Schema(), t) })
}

// Project restricts r to the named attributes (tuple level: component
// sets are carried over whole; exact duplicate tuples collapse).
// Projection of an NFR can produce tuples with overlapping expansions;
// use ProjectFlat for exact 1NF semantics.
func Project(r *core.Relation, attrs ...string) (*core.Relation, error) {
	ps, err := r.Schema().Project(attrs...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = r.Schema().Index(a)
	}
	out := core.NewRelation(ps)
	for i := 0; i < r.Len(); i++ {
		out.Add(r.Tuple(i).Project(idx))
	}
	return out, nil
}

// ProjectFlat projects R* onto the named attributes and re-nests under
// order (indices into the projected schema).
func ProjectFlat(r *core.Relation, order schema.Permutation, attrs ...string) (*core.Relation, error) {
	ps, err := r.Schema().Project(attrs...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = r.Schema().Index(a)
	}
	flat := core.NewRelation(ps)
	for _, f := range r.Expand() {
		g := make(tuple.Flat, len(idx))
		for i, j := range idx {
			g[i] = f[j]
		}
		flat.Add(tuple.FromFlat(g))
	}
	if !order.Valid(ps) {
		return nil, fmt.Errorf("algebra: invalid order %v for projected schema %v", order, ps)
	}
	out, _ := flat.Canonical(order)
	return out, nil
}

// Rename renames an attribute.
func Rename(r *core.Relation, old, new string) (*core.Relation, error) {
	ns, err := r.Schema().Rename(old, new)
	if err != nil {
		return nil, err
	}
	out := core.NewRelation(ns)
	for i := 0; i < r.Len(); i++ {
		out.Add(r.Tuple(i))
	}
	return out, nil
}

// Union returns the flat-semantics union r ∪ s re-nested under order.
// Schemas must cover the same attributes in the same order.
func Union(r, s *core.Relation, order schema.Permutation) (*core.Relation, error) {
	if err := checkSameSchema(r, s); err != nil {
		return nil, err
	}
	flat := core.NewRelation(r.Schema())
	for _, f := range r.Expand() {
		flat.Add(tuple.FromFlat(f))
	}
	for _, f := range s.Expand() {
		flat.Add(tuple.FromFlat(f))
	}
	out, _ := flat.Canonical(order)
	return out, nil
}

// Difference returns the flat-semantics difference r − s re-nested
// under order.
func Difference(r, s *core.Relation, order schema.Permutation) (*core.Relation, error) {
	if err := checkSameSchema(r, s); err != nil {
		return nil, err
	}
	drop := map[string]bool{}
	for _, f := range s.Expand() {
		drop[f.Key()] = true
	}
	flat := core.NewRelation(r.Schema())
	for _, f := range r.Expand() {
		if !drop[f.Key()] {
			flat.Add(tuple.FromFlat(f))
		}
	}
	out, _ := flat.Canonical(order)
	return out, nil
}

// Intersection returns the flat-semantics intersection r ∩ s re-nested
// under order.
func Intersection(r, s *core.Relation, order schema.Permutation) (*core.Relation, error) {
	if err := checkSameSchema(r, s); err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	for _, f := range s.Expand() {
		keep[f.Key()] = true
	}
	flat := core.NewRelation(r.Schema())
	for _, f := range r.Expand() {
		if keep[f.Key()] {
			flat.Add(tuple.FromFlat(f))
		}
	}
	out, _ := flat.Canonical(order)
	return out, nil
}

func checkSameSchema(r, s *core.Relation) error {
	if !r.Schema().Equal(s.Schema()) {
		return fmt.Errorf("algebra: schema mismatch %v vs %v", r.Schema(), s.Schema())
	}
	return nil
}

// NaturalJoin computes the flat-semantics natural join of r and s on
// their shared attributes, re-nested under order (a permutation of the
// result schema: r's attributes then s's non-shared attributes). The
// join is a classic hash join over the expansions.
func NaturalJoin(r, s *core.Relation, order schema.Permutation) (*core.Relation, error) {
	rs, ss := r.Schema(), s.Schema()
	var shared []string
	var sOnly []string
	for _, n := range ss.Names() {
		if rs.Has(n) {
			shared = append(shared, n)
		} else {
			sOnly = append(sOnly, n)
		}
	}
	outSchema, err := rs.Project(rs.Names()...)
	if err != nil {
		return nil, err
	}
	if len(sOnly) > 0 {
		add, err := ss.Project(sOnly...)
		if err != nil {
			return nil, err
		}
		outSchema, err = outSchema.Concat(add)
		if err != nil {
			return nil, err
		}
	}
	if !order.Valid(outSchema) {
		return nil, fmt.Errorf("algebra: invalid order %v for join schema %v", order, outSchema)
	}

	sharedR := make([]int, len(shared))
	sharedS := make([]int, len(shared))
	for i, n := range shared {
		sharedR[i] = rs.Index(n)
		sharedS[i] = ss.Index(n)
	}
	sOnlyIdx := make([]int, len(sOnly))
	for i, n := range sOnly {
		sOnlyIdx[i] = ss.Index(n)
	}

	joinKey := func(f tuple.Flat, idx []int) string {
		var b strings.Builder
		for k, i := range idx {
			if k > 0 {
				b.WriteByte('\x1f')
			}
			b.WriteByte(byte(f[i].K))
			b.WriteString(f[i].String())
		}
		return b.String()
	}

	// build on s
	build := map[string][]tuple.Flat{}
	for _, f := range s.Expand() {
		k := joinKey(f, sharedS)
		build[k] = append(build[k], f)
	}
	flat := core.NewRelation(outSchema)
	for _, f := range r.Expand() {
		for _, g := range build[joinKey(f, sharedR)] {
			out := make(tuple.Flat, 0, outSchema.Degree())
			out = append(out, f...)
			for _, i := range sOnlyIdx {
				out = append(out, g[i])
			}
			flat.Add(tuple.FromFlat(out))
		}
	}
	res, _ := flat.Canonical(order)
	return res, nil
}

// Product computes the cartesian product of r and s (schemas must be
// attribute-disjoint) at the tuple level: one output NFR tuple per
// pair of input tuples, concatenating components. This is exact also
// in flat semantics because expansions multiply.
func Product(r, s *core.Relation) (*core.Relation, error) {
	outSchema, err := r.Schema().Concat(s.Schema())
	if err != nil {
		return nil, err
	}
	out := core.NewRelation(outSchema)
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			sets := make([]vset.Set, 0, outSchema.Degree())
			sets = append(sets, r.Tuple(i).Sets()...)
			sets = append(sets, s.Tuple(j).Sets()...)
			out.Add(tuple.MustNew(sets...))
		}
	}
	return out, nil
}

// Nest applies ν over the named attribute (Definition 4), the
// algebra-level entry point to core.Nest.
func Nest(r *core.Relation, attr string) (*core.Relation, error) {
	i := r.Schema().Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("algebra: unknown attribute %q", attr)
	}
	out, _ := r.Nest(i)
	return out, nil
}

// Unnest applies μ over the named attribute (full unnesting).
func Unnest(r *core.Relation, attr string) (*core.Relation, error) {
	i := r.Schema().Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("algebra: unknown attribute %q", attr)
	}
	return r.Unnest(i), nil
}

// GroupCount returns, for each tuple, the cardinality of the named
// attribute's component as an extra Int column named countAttr —
// a small aggregation showing the "realization view" payoff: counting
// group members without expanding.
func GroupCount(r *core.Relation, attr, countAttr string) (*core.Relation, error) {
	i := r.Schema().Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("algebra: unknown attribute %q", attr)
	}
	ns, err := r.Schema().Concat(schema.MustNew(schema.Attribute{Name: countAttr, Kind: value.Int}))
	if err != nil {
		return nil, err
	}
	out := core.NewRelation(ns)
	for j := 0; j < r.Len(); j++ {
		t := r.Tuple(j)
		sets := make([]vset.Set, 0, ns.Degree())
		sets = append(sets, t.Sets()...)
		sets = append(sets, vset.Single(value.NewInt(int64(t.Set(i).Len()))))
		out.Add(tuple.MustNew(sets...))
	}
	return out, nil
}
