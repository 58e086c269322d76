package core

import (
	"math/rand"
	"slices"

	"repro/internal/tuple"
)

// composablePairs calls fn for every pair of tuples of ts that agree on
// every attribute but one, so that Compose applies there: attribute by
// attribute, and within an attribute group by group in order of first
// occurrence — never in map order, so whatever a caller derives from
// the sequence is a function of ts alone. fn returning false stops the
// walk. Tuples are bucketed by HashExcept and AgreeExcept decides, as
// in the kernel's nest, so atoms that render alike but differ under
// value.Compare (Int 1, String "1") never share a group.
func composablePairs(ts []tuple.Tuple, degree int, fn func(a, b, attr int) bool) {
	for i := 0; i < degree; i++ {
		var groups [][]int                        // member indexes, first member first
		byHash := make(map[uint64][]int, len(ts)) // HashExcept -> groups
		for j, t := range ts {
			h := t.HashExcept(i)
			k := slices.IndexFunc(byHash[h], func(g int) bool { return ts[groups[g][0]].AgreeExcept(t, i) })
			if k < 0 {
				k = len(byHash[h])
				byHash[h] = append(byHash[h], len(groups))
				groups = append(groups, nil)
			}
			g := byHash[h][k]
			groups[g] = append(groups[g], j)
		}
		for _, idxs := range groups {
			for x := 0; x < len(idxs); x++ {
				for y := x + 1; y < len(idxs); y++ {
					if !fn(idxs[x], idxs[y], i) {
						return
					}
				}
			}
		}
	}
}

// IrreducibleGreedy derives an irreducible form (Definition 3) by
// repeatedly applying an arbitrary applicable composition until none
// remains. The rng, when non-nil, randomizes which pair is composed at
// each step, exercising the paper's observation that a 1NF relation
// can reach several distinct irreducible forms (Example 1). With a nil
// rng the first applicable pair in (attribute, tuple-order) scan order
// is used, which is deterministic.
//
// It returns the irreducible relation and the number of compositions
// applied (always Len()-result.Len()).
func (r *Relation) IrreducibleGreedy(rng *rand.Rand) (*Relation, int) {
	ts := r.Tuples()
	comps := 0
	for {
		type pair struct{ a, b, attr int }
		var found []pair
		composablePairs(ts, r.sch.Degree(), func(a, b, attr int) bool {
			found = append(found, pair{a, b, attr})
			return rng != nil // deterministic: first found is enough
		})
		if len(found) == 0 {
			break
		}
		p := found[0]
		if rng != nil {
			p = found[rng.Intn(len(found))]
		}
		merged, ok := tuple.Compose(ts[p.a], ts[p.b], p.attr)
		if !ok {
			panic("core: bucketed pair not composable")
		}
		ts[p.a] = merged
		ts = append(ts[:p.b], ts[p.b+1:]...)
		comps++
	}
	return MustFromTuples(r.sch, ts), comps
}

// eachComposition calls visit with every relation one composition away
// from r, in composablePairs order, and reports whether there was any
// (false: r is irreducible).
func (r *Relation) eachComposition(visit func(*Relation)) bool {
	ts := r.tuples
	reducible := false
	composablePairs(ts, r.sch.Degree(), func(a, b, attr int) bool {
		reducible = true
		merged, ok := tuple.Compose(ts[a], ts[b], attr)
		if !ok {
			panic("core: bucketed pair not composable")
		}
		next := NewRelation(r.sch)
		for j, t := range ts {
			if j != a && j != b {
				next.Add(t)
			}
		}
		next.Add(merged)
		visit(next)
		return true
	})
	return reducible
}

// FormSearchResult reports the outcome of an exhaustive search over the
// composition reachability graph.
type FormSearchResult struct {
	// Best is a reachable irreducible relation with the fewest tuples
	// found. Nil only if the search could not start.
	Best *Relation
	// MinTuples is Best.Len().
	MinTuples int
	// Exhaustive is true when the whole reachable state space was
	// explored, so MinTuples is the true minimum; false when the state
	// cap was hit and MinTuples is only an upper bound.
	Exhaustive bool
	// StatesVisited counts distinct relation states explored.
	StatesVisited int
}

// MinimumIrreducible exhaustively searches the space of relations
// reachable from r by compositions and returns an irreducible form
// with the minimum number of tuples. Because every composition
// removes exactly one tuple, this equals maximizing the composition
// count. The search memoizes visited states by canonical relation key
// and stops expanding after maxStates distinct states (0 means a
// default of 100000); the result records whether the search was
// exhaustive.
//
// The paper notes finding the "minimum" NFR is hard (Section 4); this
// exact search is intended for the small worked examples (Example 2)
// and for validating the greedy and canonical forms against ground
// truth on small random relations.
func (r *Relation) MinimumIrreducible(maxStates int) FormSearchResult {
	if maxStates <= 0 {
		maxStates = 100000
	}
	visited := map[string]bool{}
	res := FormSearchResult{Best: r.Clone(), MinTuples: r.Len(), Exhaustive: true}

	var dfs func(cur *Relation)
	dfs = func(cur *Relation) {
		key := cur.Key()
		if visited[key] {
			return
		}
		if len(visited) >= maxStates {
			res.Exhaustive = false
			return
		}
		visited[key] = true

		if !cur.eachComposition(dfs) && cur.Len() < res.MinTuples {
			res.MinTuples = cur.Len()
			res.Best = cur.Clone()
		}
	}
	dfs(r)
	res.StatesVisited = len(visited)
	return res
}

// AllIrreducibleForms enumerates the distinct irreducible forms
// reachable from r by compositions, up to maxForms results and
// maxStates explored states (0 means defaults of 10000 / 100000). The
// second result reports whether enumeration was exhaustive.
func (r *Relation) AllIrreducibleForms(maxForms, maxStates int) ([]*Relation, bool) {
	if maxForms <= 0 {
		maxForms = 10000
	}
	if maxStates <= 0 {
		maxStates = 100000
	}
	visited := map[string]bool{}
	forms := map[string]*Relation{}
	exhaustive := true

	var dfs func(cur *Relation)
	dfs = func(cur *Relation) {
		key := cur.Key()
		if visited[key] {
			return
		}
		if len(visited) >= maxStates || len(forms) >= maxForms {
			exhaustive = false
			return
		}
		visited[key] = true

		if !cur.eachComposition(dfs) {
			forms[key] = cur.Clone()
		}
	}
	dfs(r)

	out := make([]*Relation, 0, len(forms))
	// deterministic order: by key
	keys := make([]string, 0, len(forms))
	for k := range forms {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		out = append(out, forms[k])
	}
	return out, exhaustive
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
