// Package update implements Section 4 of the paper: insertion and
// deletion of single 1NF tuples directly on a canonical-form NFR,
// without rebuilding V_P(R*) from scratch.
//
// Notation mapping. The paper fixes a permutation P = EnEn-1...E1 and
// maintains V_P(R*). Working through the paper's own examples (Figs
// 1 and 2, as internal/experiments reproduces them), Section 4's
// attribute numbering is by nest time: E1 is the first-nested
// attribute, En the last-nested. This package uses
// 0-based "positions" in the nest order: position 0 = paper's E1.
//
// The candidate tuple of a floating tuple t (paper 4.1) is the tuple
// s in R that admits a composition with t on attribute E_{k+1} after
// splitting t's values out of s on all later-nested attributes:
//
//	position q < k : s and t agree set-theoretically (already equal),
//	position q > k : t's component is a subset of s's (s gets
//	                 decomposed down to t's component; the remainders
//	                 are recursively reconsidered), and
//	position k     : the components are disjoint (the composition
//	                 point).
//
// Among tuples with the property, the one with minimal k is the
// candidate; Lemma A-1 asserts it is then unique.
package update

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/vset"
)

// Stats counts the primitive operations performed by the update
// algorithms — the cost measure of Theorem A-4 ("the complexity means
// the number of compositions").
type Stats struct {
	// Compositions counts compo invocations (Definition-1 merges).
	Compositions int
	// Decompositions counts unnest invocations that actually split a
	// tuple (Definition-2 splits; splitting a whole subset at once
	// counts as one).
	Decompositions int
	// CandidateScans counts tuples examined while searching for
	// candidate tuples (candt) and covering tuples (searcht).
	CandidateScans int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Compositions += s2.Compositions
	s.Decompositions += s2.Decompositions
	s.CandidateScans += s2.CandidateScans
}

// Sink observes every NFR-tuple mutation the maintainer applies to its
// canonical relation, as the Section-4 algorithms compose and decompose
// tuples; Added/Removed fire only for mutations that actually changed
// the relation. It is an observer and nothing more: it cannot fail a
// statement and it sees no statement boundary. Whoever registers one
// owns both, as the engine does: its Tx is the sink for one statement's
// run, checks every tuple added, and only then writes the events under
// its transaction.
type Sink interface {
	TupleAdded(t tuple.Tuple)
	TupleRemoved(t tuple.Tuple)
}

// Maintainer owns an NFR kept permanently in canonical form V_P and
// applies the paper's update algorithms to it.
type Maintainer struct {
	rel   *core.Relation
	order schema.Permutation // order[0] is nested first (paper's E1)
	stats Stats
	sink  Sink
	// idx, when non-nil, indexes the stored tuples on the last-nested
	// attribute to prune the candidate scan (see index.go for the
	// soundness argument). Nil = naive scan.
	idx *tupleIndex
	// recursionBudget guards against runaway recursion if an
	// interpretation bug ever breaks termination; generous because the
	// paper's bound is a function of the degree only.
	recursionBudget int
}

// NewMaintainer returns a maintainer over an empty relation using the
// paper's naive candidate scan.
func NewMaintainer(s *schema.Schema, order schema.Permutation) (*Maintainer, error) {
	if !order.Valid(s) {
		return nil, fmt.Errorf("update: invalid nest order %v for schema %v", order, s)
	}
	return &Maintainer{rel: core.NewRelation(s), order: order}, nil
}

func (m *Maintainer) enableIndex() {
	m.idx = newTupleIndex(m.order[len(m.order)-1])
	for i := 0; i < m.rel.Len(); i++ {
		m.idx.add(m.rel.Tuple(i))
	}
}

// SetSink registers a mutation observer (nil to detach). The sink sees
// only mutations applied after registration; a storage layer loading an
// existing relation registers after the initial load.
func (m *Maintainer) SetSink(s Sink) { m.sink = s }

// addTuple and removeTuple route every relation mutation through the
// indexes and the sink so both stay exact.
func (m *Maintainer) addTuple(t tuple.Tuple) {
	if !m.rel.Add(t) {
		return
	}
	if m.idx != nil {
		m.idx.add(t)
	}
	if m.sink != nil {
		m.sink.TupleAdded(t)
	}
}

func (m *Maintainer) removeTuple(t tuple.Tuple) {
	if !m.rel.Remove(t) {
		return
	}
	if m.idx != nil {
		m.idx.remove(t)
	}
	if m.sink != nil {
		m.sink.TupleRemoved(t)
	}
}

// FromRelation canonicalizes r under the nest order and returns a
// maintainer over the result. r itself is not modified.
func FromRelation(r *core.Relation, order schema.Permutation) (*Maintainer, error) {
	m, err := NewMaintainer(r.Schema(), order)
	if err != nil {
		return nil, err
	}
	canon, _ := r.CanonicalFromFlats(order)
	m.rel = canon
	return m, nil
}

// FromRelationIndexed is FromRelation with the candidate indexes of
// index.go enabled: the candidate and covering-tuple searches go
// through them instead of the naive candt scan. Results are identical;
// only the search cost changes.
func FromRelationIndexed(r *core.Relation, order schema.Permutation) (*Maintainer, error) {
	m, err := FromRelation(r, order)
	if err != nil {
		return nil, err
	}
	m.enableIndex()
	return m, nil
}

// ErrNotCanonical is Adopt's refusal of a relation that is not V_P of
// its own flat expansion.
var ErrNotCanonical = errors.New("update: relation is not in canonical form")

// Adopt returns an indexed maintainer that owns r, which must already
// be V_P(R*(r)) for the nest order: r is checked
// (core.Relation.IsCanonicalFor), not rebuilt, and refused with
// ErrNotCanonical if it fails. The caller must not modify r afterwards.
func Adopt(r *core.Relation, order schema.Permutation) (*Maintainer, error) {
	m, err := NewMaintainer(r.Schema(), order)
	if err != nil {
		return nil, err
	}
	if !r.IsCanonicalFor(order) {
		return nil, ErrNotCanonical
	}
	m.rel = r
	m.enableIndex()
	return m, nil
}

// Relation returns the maintained canonical relation. Callers must not
// modify it; Clone before mutating.
func (m *Maintainer) Relation() *core.Relation { return m.rel }

// Stats returns the accumulated operation counts.
func (m *Maintainer) Stats() Stats { return m.stats }

// ResetStats zeroes the operation counters.
func (m *Maintainer) ResetStats() { m.stats = Stats{} }

// SetStats replaces the operation counters.
func (m *Maintainer) SetStats(s Stats) { m.stats = s }

// Len returns the number of NFR tuples currently stored.
func (m *Maintainer) Len() int { return m.rel.Len() }

// Insert adds the flat tuple to the maintained relation, restoring the
// canonical form incrementally (procedure "insertion" + "recons"). It
// reports whether the relation changed (false if f was already in R*).
func (m *Maintainer) Insert(f tuple.Flat) (bool, error) {
	if len(f) != m.rel.Schema().Degree() {
		return false, fmt.Errorf("update: flat tuple degree %d != schema degree %d", len(f), m.rel.Schema().Degree())
	}
	if _, covered := m.containsFlat(f); covered {
		return false, nil
	}
	m.recursionBudget = m.budget()
	m.recons(tuple.FromFlat(f))
	return true, nil
}

// Op is one logged flat-tuple mutation: an Insert, or a Delete when
// Delete is set.
type Op struct {
	F      tuple.Flat
	Delete bool
}

// Delete removes the flat tuple from the maintained relation,
// restoring the canonical form incrementally (procedure "deletion").
// It reports whether the relation changed (false if f was not in R*).
func (m *Maintainer) Delete(f tuple.Flat) (bool, error) {
	if len(f) != m.rel.Schema().Degree() {
		return false, fmt.Errorf("update: flat tuple degree %d != schema degree %d", len(f), m.rel.Schema().Degree())
	}
	q, covered := m.containsFlat(f) // searcht
	if !covered {
		return false, nil
	}
	m.recursionBudget = m.budget()
	m.removeTuple(q)
	// Split f's value out of q attribute by attribute, last-nested
	// first (paper: i = n downto 1), reconsidering each remainder.
	for pos := len(m.order) - 1; pos >= 0; pos-- {
		attr := m.order[pos]
		set := q.Set(attr)
		if set.Len() == 1 {
			continue
		}
		rest := set.Remove(f[attr])
		m.stats.Decompositions++
		qe := q.WithSet(attr, vset.Single(f[attr]))
		qr := q.WithSet(attr, rest)
		m.recons(qr)
		q = qe
	}
	// q is now exactly the flat tuple; deletet(q) = drop it.
	return true, nil
}

// budget returns a recursion bound comfortably above the paper's
// degree-only complexity bound, but proportional to relation size so a
// semantic regression fails loudly instead of spinning.
func (m *Maintainer) budget() int {
	n := m.rel.Schema().Degree()
	b := 1 << uint(2*n+4)
	if extra := 64 * (m.rel.Len() + 1); extra > b {
		b = extra
	}
	return b
}

// containsFlat is the paper's searcht: find the tuple of R whose
// expansion contains f. With the index enabled only tuples whose
// last-nested component contains f's atom there are examined.
func (m *Maintainer) containsFlat(f tuple.Flat) (tuple.Tuple, bool) {
	if m.idx != nil {
		for _, t := range m.idx.containing(f[m.idx.last]) {
			m.stats.CandidateScans++
			if t.ContainsFlat(f) {
				return t, true
			}
		}
		return tuple.Tuple{}, false
	}
	for i := 0; i < m.rel.Len(); i++ {
		m.stats.CandidateScans++
		t := m.rel.Tuple(i)
		if t.ContainsFlat(f) {
			return t, true
		}
	}
	return tuple.Tuple{}, false
}

// candt finds the candidate tuple of the floating tuple t: the tuple
// with the candidate property at the minimal position k. It returns
// found=false when no tuple qualifies.
func (m *Maintainer) candt(t tuple.Tuple) (p tuple.Tuple, k int, found bool) {
	bestK := len(m.order)
	consider := func(s tuple.Tuple) {
		m.stats.CandidateScans++
		if lvl, ok := m.candidateLevel(s, t); ok && lvl < bestK {
			bestK = lvl
			p = s
			found = true
		}
	}
	if m.idx != nil {
		// candidates at positions k < n−1 first; k = n−1 only matters
		// when there is none, since the lowest position wins
		for _, s := range m.idx.containingAll(t) {
			consider(s)
		}
		if !found {
			for _, s := range m.idx.agreeingExceptLast(t) {
				consider(s)
			}
		}
		return p, bestK, found
	}
	for i := 0; i < m.rel.Len(); i++ {
		consider(m.rel.Tuple(i))
	}
	return p, bestK, found
}

// candidateLevel returns the position k at which s has the candidate
// property with respect to t, if any: equal on q < k, disjoint at k,
// t ⊆ s on q > k. Components are non-empty, so the first position where
// s and t differ is the only possible k.
func (m *Maintainer) candidateLevel(s, t tuple.Tuple) (int, bool) {
	for k, attr := range m.order {
		ss, ts := s.Set(attr), t.Set(attr)
		if ss.Equal(ts) {
			continue
		}
		if !ss.Disjoint(ts) {
			return 0, false
		}
		for _, later := range m.order[k+1:] {
			if !t.Set(later).SubsetOf(s.Set(later)) {
				return 0, false
			}
		}
		return k, true
	}
	return 0, false
}

// recons is the paper's central procedure: place the floating tuple t
// into the relation, merging it with its candidate chain. Implemented
// iteratively for the tail call (recons(w)) and recursively for the
// split remainders (recons(pr)).
func (m *Maintainer) recons(t tuple.Tuple) {
	for {
		if m.recursionBudget <= 0 {
			panic("update: recursion budget exhausted — termination invariant violated")
		}
		m.recursionBudget--

		p, k, found := m.candt(t)
		if !found {
			m.addTuple(t)
			return
		}
		m.removeTuple(p)
		// Split t's values out of p on later-nested positions (paper:
		// j := n; while j > m), reconsidering the remainders.
		for q := len(m.order) - 1; q > k; q-- {
			attr := m.order[q]
			target := t.Set(attr)
			if p.Set(attr).Equal(target) {
				continue
			}
			rest := p.Set(attr).Diff(target)
			m.stats.Decompositions++
			pr := p.WithSet(attr, rest)
			p = p.WithSet(attr, target)
			m.recons(pr)
		}
		w, ok := tuple.Compose(p, t, m.order[k])
		if !ok {
			panic("update: candidate not composable after unnesting")
		}
		m.stats.Compositions++
		t = w // recons(w)
	}
}
