package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Fig3Result summarizes the Fig.-3 classification sweep.
type Fig3Result struct {
	Relations      int
	Irreducible    int // irreducible forms examined (all of them, by construction)
	Canonical      int // of those, canonical for some permutation
	FixedSomewhere int // fixed on at least one single domain
	CanonicalFixed int // canonical and fixed
	ContainmentOK  bool
}

// RunFig3 validates Figure 3's containment picture empirically:
// canonical forms are a subset of irreducible forms, fixed NFRs
// overlap both, and the regions are all inhabited. For `trials` random
// relations it derives irreducible forms (greedy, randomized) and
// classifies each.
func RunFig3(w io.Writer, trials int, seed int64) Fig3Result {
	rng := rand.New(rand.NewSource(seed))
	res := Fig3Result{ContainmentOK: true}
	for i := 0; i < trials; i++ {
		deg := 2 + rng.Intn(2)
		names := []string{"A", "B", "C"}[:deg]
		s := schema.MustOf(names...)
		r := workload.GenUniform(rng.Int63(), 3+rng.Intn(8), deg, 3)
		if r.Schema().Degree() != deg {
			r = workload.GenUniform(rng.Int63(), 3+rng.Intn(8), deg, 3)
		}
		_ = s
		ir, _ := r.IrreducibleGreedy(rng)
		res.Relations++
		res.Irreducible++
		_, isCanon := ir.IsCanonical()
		fixed := len(ir.FixedDomains()) > 0
		if isCanon {
			res.Canonical++
		}
		if fixed {
			res.FixedSomewhere++
		}
		if isCanon && fixed {
			res.CanonicalFixed++
		}
		// containment: canonical implies irreducible — verify directly
		if isCanon && !ir.IsIrreducible() {
			res.ContainmentOK = false
		}
	}
	fmt.Fprintln(w, "Fig. 3 — classification of randomly derived irreducible forms")
	fmt.Fprintf(w, "  relations examined:        %d\n", res.Relations)
	fmt.Fprintf(w, "  irreducible (all):         %d\n", res.Irreducible)
	fmt.Fprintf(w, "  ... canonical for some P:  %d\n", res.Canonical)
	fmt.Fprintf(w, "  ... fixed on some domain:  %d\n", res.FixedSomewhere)
	fmt.Fprintf(w, "  ... canonical AND fixed:   %d\n", res.CanonicalFixed)
	fmt.Fprintf(w, "  canonical ⊆ irreducible:   %v\n", res.ContainmentOK)
	return res
}

// TheoremCheck is a pass/fail summary for a theorem sweep.
type TheoremCheck struct {
	Trials int
	Passes int
}

// Ok reports whether every trial passed.
func (t TheoremCheck) Ok() bool { return t.Trials > 0 && t.Passes == t.Trials }

// RunTheorem1 validates Theorem 1 (unique R*): random relations pushed
// through random composition/decomposition walks always expand to the
// same flat set.
func RunTheorem1(w io.Writer, trials int, seed int64) TheoremCheck {
	rng := rand.New(rand.NewSource(seed))
	var res TheoremCheck
	for i := 0; i < trials; i++ {
		r := workload.GenUniform(rng.Int63(), 4+rng.Intn(10), 3, 3)
		want := r.ExpandRelation()
		// random walk: a few greedy compositions, then some random
		// decompositions, then more compositions
		ir, _ := r.IrreducibleGreedy(rng)
		walk := ir
		for step := 0; step < 5; step++ {
			// decompose a random wide component if any
			done := false
			for ti := 0; ti < walk.Len() && !done; ti++ {
				t := walk.Tuple(ti)
				for d := 0; d < t.Degree(); d++ {
					if t.Set(d).Len() >= 2 {
						walk = walk.Unnest(d)
						done = true
						break
					}
				}
			}
		}
		walk2, _ := walk.IrreducibleGreedy(rng)
		res.Trials++
		if walk2.ExpandRelation().Equal(want) && walk.ExpandRelation().Equal(want) {
			res.Passes++
		}
	}
	fmt.Fprintf(w, "Theorem 1 (unique R*): %d/%d random walks preserved the expansion\n",
		res.Passes, res.Trials)
	return res
}

// RunTheorem2 validates Theorem 2 (canonical-form uniqueness): for
// random relations and permutations, pairwise nests with shuffled
// composition order all converge to the hash-grouped canonical form.
func RunTheorem2(w io.Writer, trials int, seed int64) TheoremCheck {
	rng := rand.New(rand.NewSource(seed))
	var res TheoremCheck
	for i := 0; i < trials; i++ {
		r := workload.GenUniform(rng.Int63(), 4+rng.Intn(10), 3, 3)
		perms := schema.AllPermutations(3)
		p := perms[rng.Intn(len(perms))]
		want, _ := r.Canonical(p)
		ok := true
		cur := r
		for _, attr := range p {
			shuffled, _ := cur.NestPairwise(attr, shuffledPairPicker(rng, attr))
			grouped, _ := cur.Nest(attr)
			if !shuffled.Equal(grouped) {
				ok = false
				break
			}
			cur = grouped
		}
		if ok && !cur.Equal(want) {
			ok = false
		}
		res.Trials++
		if ok {
			res.Passes++
		}
	}
	fmt.Fprintf(w, "Theorem 2 (canonical uniqueness): %d/%d shuffled-order nests matched\n",
		res.Passes, res.Trials)
	return res
}

func shuffledPairPicker(rng *rand.Rand, attr int) func([]tuple.Tuple) (int, int, bool) {
	return func(ts []tuple.Tuple) (int, int, bool) {
		type pr struct{ a, b int }
		var prs []pr
		for a := 0; a < len(ts); a++ {
			for b := a + 1; b < len(ts); b++ {
				if ts[a].AgreeExcept(ts[b], attr) {
					prs = append(prs, pr{a, b})
				}
			}
		}
		if len(prs) == 0 {
			return 0, 0, false
		}
		p := prs[rng.Intn(len(prs))]
		return p.a, p.b, true
	}
}

// RunTheorem3 validates Theorem 3: with a key FD F -> E1..Em (the
// theorem's premise makes F a key), every derived irreducible form is
// fixed on F and each Ei is at most 1:n (never grouped).
func RunTheorem3(w io.Writer, trials int, seed int64) TheoremCheck {
	rng := rand.New(rand.NewSource(seed))
	var res TheoremCheck
	fSet := schema.NewAttrSet("F")
	for i := 0; i < trials; i++ {
		r := workload.GenPlantedFD(rng.Int63(), 20+rng.Intn(40), 2, 4)
		ir, _ := r.IrreducibleGreedy(rng)
		ok := ir.FixedOn(fSet)
		for a := 1; a < r.Schema().Degree(); a++ {
			if !ir.AttrCardinality(a).AtMost(core.OneN) {
				ok = false
			}
		}
		res.Trials++
		if ok {
			res.Passes++
		}
	}
	fmt.Fprintf(w, "Theorem 3 (FD ⇒ fixed + 1:n): %d/%d irreducible forms conformed\n",
		res.Passes, res.Trials)
	return res
}

// Theorem4Result counts fixed and unfixed irreducible forms under a
// planted MVD.
type Theorem4Result struct {
	Trials      int
	ExistsFixed int // trials where some derived form was fixed on F
	SawUnfixed  int // trials where some derived form was NOT fixed on F
}

// RunTheorem4 validates Theorem 4: under MVD F ->-> E1 | rest, an
// irreducible form fixed on F exists (the canonical form nesting F
// last realizes it), while other irreducible forms need not be fixed —
// exactly Example 3's point, at scale.
func RunTheorem4(w io.Writer, trials int, seed int64) Theorem4Result {
	rng := rand.New(rand.NewSource(seed))
	var res Theorem4Result
	fSet := schema.NewAttrSet("F")
	for i := 0; i < trials; i++ {
		r := workload.GenPlantedMVD(rng.Int63(), workload.PlantedParams{
			Groups: 4 + rng.Intn(4), RhsPool: 5, MeanBlock: 2, Extra: 0,
		})
		res.Trials++
		// the canonical form nesting the dependents first is fixed on F
		p := schema.MustPermOf(r.Schema(), "E1", "E2", "F")
		canon, _ := r.Canonical(p)
		if canon.FixedOn(fSet) {
			res.ExistsFixed++
		}
		// randomized greedy forms may lose fixedness
		for k := 0; k < 10; k++ {
			ir, _ := r.IrreducibleGreedy(rng)
			if !ir.FixedOn(fSet) {
				res.SawUnfixed++
				break
			}
		}
	}
	fmt.Fprintf(w, "Theorem 4 (MVD ⇒ ∃ fixed irreducible): fixed canonical form found in %d/%d trials; non-fixed irreducible forms observed in %d trials\n",
		res.ExistsFixed, res.Trials, res.SawUnfixed)
	return res
}

// RunTheorem5 validates Theorem 5: for random relations and all
// permutations of small degree, V_P(R) is fixed on the attributes
// nested after P[0] — at most n−1 domains.
func RunTheorem5(w io.Writer, trials int, seed int64) TheoremCheck {
	rng := rand.New(rand.NewSource(seed))
	var res TheoremCheck
	for i := 0; i < trials; i++ {
		deg := 3
		r := workload.GenUniform(rng.Int63(), 5+rng.Intn(15), deg, 3)
		ok := true
		for _, p := range schema.AllPermutations(deg) {
			c, _ := r.Canonical(p)
			rest := schema.NewAttrSet()
			for _, idx := range p[1:] {
				rest.Add(r.Schema().Attr(idx).Name)
			}
			if rest.Len() > deg-1 || !c.FixedOn(rest) {
				ok = false
				break
			}
		}
		res.Trials++
		if ok {
			res.Passes++
		}
	}
	fmt.Fprintf(w, "Theorem 5 (canonical fixed on ≤ n−1 domains): %d/%d relations conformed across all permutations\n",
		res.Passes, res.Trials)
	return res
}
