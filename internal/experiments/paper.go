// Package experiments regenerates every figure, worked example, and
// theorem-backed claim of the paper (Artifacts in claims.go is the
// index; cmd/nfr-repro prints them). Each experiment is a named runner that writes a human-readable table
// and returns structured results so tests and benchmarks can assert
// the paper's claims mechanically.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/update"
)

// Fig1Data builds the two relations of Figure 1 in flat form:
// R1[Student, Course, Club] (entity relation, MVD Student ->-> Course |
// Club) and R2[Student, Course, Semester] (relationship relation).
// Reconstructed from the figure plus the Fig.-2 update narrative
// ("removing the first tuple in R2 and adding ({s2,s3},{c1,c2},t1) and
// (s1,c2,t1)"), which pins R2's first tuple to [{s1,s2,s3} {c1,c2} t1]:
//
//	R1: s1 | c1,c2,c3 | b1     R2: s1,s2,s3 | c1,c2 | t1
//	    s2 | c1,c2,c3 | b2         s1,s3    | c3    | t1
//	    s3 | c1,c2,c3 | b1         s2       | c3    | t2
func Fig1Data() (r1, r2 *core.Relation) {
	s1 := schema.MustOf("Student", "Course", "Club")
	s2 := schema.MustOf("Student", "Course", "Semester")
	r1 = core.NewRelation(s1)
	for _, st := range []struct {
		s, b string
		cs   []string
	}{
		{"s1", "b1", []string{"c1", "c2", "c3"}},
		{"s3", "b1", []string{"c1", "c2", "c3"}},
		{"s2", "b2", []string{"c1", "c2", "c3"}},
	} {
		for _, c := range st.cs {
			r1.Add(tuple.FromFlat(tuple.FlatOfStrings(st.s, c, st.b)))
		}
	}
	r2 = core.NewRelation(s2)
	for _, s := range []string{"s1", "s2", "s3"} {
		for _, c := range []string{"c1", "c2"} {
			r2.Add(tuple.FromFlat(tuple.FlatOfStrings(s, c, "t1")))
		}
	}
	r2.Add(tuple.FromFlat(tuple.FlatOfStrings("s1", "c3", "t1")))
	r2.Add(tuple.FromFlat(tuple.FlatOfStrings("s3", "c3", "t1")))
	r2.Add(tuple.FromFlat(tuple.FlatOfStrings("s2", "c3", "t2")))
	return r1, r2
}

// Fig1Orders returns the nest orders used to display Fig. 1: for R1
// nest Course then Student then Club (grouping courses per student,
// then students with identical course-set+club); for R2 nest Student
// then Course then Semester (grouping students per course+semester).
func Fig1Orders(r1, r2 *core.Relation) (p1, p2 schema.Permutation) {
	p1 = schema.MustPermOf(r1.Schema(), "Course", "Student", "Club")
	p2 = schema.MustPermOf(r2.Schema(), "Student", "Course", "Semester")
	return p1, p2
}

// RunFig1 nests the Fig.-1 data into NFR form and prints both tables.
// For R1 it prints two renderings: ν_Course(R1), the partially nested
// form the paper's figure shows (one row per student), and the fully
// canonical form, which additionally groups s1 and s3 because they
// share an identical course-set and club. R2's canonical form matches
// the printed figure exactly. The returned relations are the canonical
// ones (used by Fig. 2).
func RunFig1(w io.Writer) (n1, n2 *core.Relation) {
	r1, r2 := Fig1Data()
	p1, p2 := Fig1Orders(r1, r2)
	partial, _ := r1.Nest(r1.Schema().Index("Course"))
	partial.SortTuples()
	n1, _ = r1.Canonical(p1)
	n2, _ = r2.Canonical(p2)
	n1.SortTuples()
	n2.SortTuples()
	fmt.Fprintln(w, "Fig. 1 — R1 as printed (ν_Course; MVD Student ->-> Course | Club):")
	fmt.Fprintln(w, query.RenderTable(partial))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Fig. 1 — R1 fully canonical (V_P groups s1,s3 further):")
	fmt.Fprintln(w, query.RenderTable(n1))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Fig. 1 — R2 (relationship relation; no MVD):")
	fmt.Fprintln(w, query.RenderTable(n2))
	return n1, n2
}

// RunFig2 applies the Section-2 update — student s1 stops taking
// course c1 — to both relations using the Section-4 deletion algorithm
// and prints the updated NFRs (Figure 2). It returns the updated
// relations and the operation counts incurred on each.
func RunFig2(w io.Writer) (u1, u2 *core.Relation, ops1, ops2 update.Stats) {
	r1, r2 := Fig1Data()
	p1, p2 := Fig1Orders(r1, r2)
	m1, err := update.FromRelation(r1, p1)
	if err != nil {
		panic(err)
	}
	m2, err := update.FromRelation(r2, p2)
	if err != nil {
		panic(err)
	}
	// drop every (s1, c1, ·) from R1 and (s1, c1, ·) from R2
	for _, f := range r1.Expand() {
		if f[0].Str() == "s1" && f[1].Str() == "c1" {
			if _, err := m1.Delete(f); err != nil {
				panic(err)
			}
		}
	}
	for _, f := range r2.Expand() {
		if f[0].Str() == "s1" && f[1].Str() == "c1" {
			if _, err := m2.Delete(f); err != nil {
				panic(err)
			}
		}
	}
	u1, u2 = m1.Relation().Clone(), m2.Relation().Clone()
	u1.SortTuples()
	u2.SortTuples()
	fmt.Fprintln(w, "Fig. 2 — R1 after s1 stops taking c1 (value removed from one set):")
	fmt.Fprintln(w, query.RenderTable(u1))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Fig. 2 — R2 after the same update (tuple split and regrouped):")
	fmt.Fprintln(w, query.RenderTable(u2))
	fmt.Fprintf(w, "\nupdate cost: R1 %d compositions + %d decompositions; R2 %d + %d\n",
		m1.Stats().Compositions, m1.Stats().Decompositions,
		m2.Stats().Compositions, m2.Stats().Decompositions)
	return u1, u2, m1.Stats(), m2.Stats()
}

// Example1Result reports Example 1's artifacts.
type Example1Result struct {
	R1, R2 *core.Relation // the two irreducible forms named in the paper
	All    []*core.Relation
}

// RunExample1 reproduces Example 1: the 4-tuple relation over A,B with
// (at least) two distinct irreducible forms.
func RunExample1(w io.Writer) Example1Result {
	s := schema.MustOf("A", "B")
	r := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a2", "b1"),
		tuple.FlatOfStrings("a2", "b2"),
		tuple.FlatOfStrings("a3", "b2"),
	})
	res := Example1Result{
		R1: core.MustFromTuples(s, []tuple.Tuple{
			core.TupleOfSets([]string{"a1", "a2"}, []string{"b1"}),
			core.TupleOfSets([]string{"a2", "a3"}, []string{"b2"}),
		}),
		R2: core.MustFromTuples(s, []tuple.Tuple{
			core.TupleOfSets([]string{"a1"}, []string{"b1"}),
			core.TupleOfSets([]string{"a2"}, []string{"b1", "b2"}),
			core.TupleOfSets([]string{"a3"}, []string{"b2"}),
		}),
	}
	forms, _ := r.AllIrreducibleForms(0, 0)
	res.All = forms
	fmt.Fprintln(w, "Example 1 — R = {(a1,b1),(a2,b1),(a2,b2),(a3,b2)}")
	fmt.Fprintf(w, "distinct irreducible forms reachable by composition: %d\n", len(forms))
	for i, f := range forms {
		f.SortTuples()
		tag := ""
		if f.Equal(res.R1) {
			tag = "   <- paper's R1 (via νA)"
		}
		if f.Equal(res.R2) {
			tag = "   <- paper's R2 (via νB(r2,r3))"
		}
		fmt.Fprintf(w, "form %d (%d tuples):%s\n%s\n", i+1, f.Len(), tag, indent(f.String()))
	}
	return res
}

// Example2Result reports Example 2's artifacts.
type Example2Result struct {
	MinIrreducible int
	CanonicalSizes map[string]int
	R4             *core.Relation
}

// RunExample2 reproduces Example 2: the 6-tuple relation over A,B,C
// whose minimum irreducible form has 3 tuples while every canonical
// form has 4.
func RunExample2(w io.Writer) Example2Result {
	s := schema.MustOf("A", "B", "C")
	r3 := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1", "c2"),
		tuple.FlatOfStrings("a1", "b2", "c2"),
		tuple.FlatOfStrings("a1", "b2", "c1"),
		tuple.FlatOfStrings("a2", "b1", "c1"),
		tuple.FlatOfStrings("a2", "b1", "c2"),
		tuple.FlatOfStrings("a2", "b2", "c1"),
	})
	res := Example2Result{CanonicalSizes: map[string]int{}}
	search := r3.MinimumIrreducible(0)
	res.MinIrreducible = search.MinTuples
	res.R4 = search.Best
	fmt.Fprintln(w, "Example 2 — R3 with 6 flat tuples over A,B,C")
	fmt.Fprintf(w, "minimum irreducible form: %d tuples (exhaustive=%v, %d states)\n",
		search.MinTuples, search.Exhaustive, search.StatesVisited)
	search.Best.SortTuples()
	fmt.Fprintln(w, indent(search.Best.String()))
	fmt.Fprintln(w, "canonical forms (all 3! = 6 permutations):")
	for _, p := range schema.AllPermutations(3) {
		c, _ := r3.Canonical(p)
		key := fmt.Sprint(p.Names(s))
		res.CanonicalSizes[key] = c.Len()
		fmt.Fprintf(w, "  V_%v: %d tuples\n", p.Names(s), c.Len())
	}
	return res
}

// Example3Result reports Example 3's artifacts.
type Example3Result struct {
	R7, R8       *core.Relation
	R7Fixed      bool
	R8Fixed      bool
	FormsFixed   int
	FormsUnfixed int
}

// RunExample3 reproduces Example 3: under MVD A ->-> B | C, the
// irreducible form R7 is fixed on A while R8 is not (Theorem 4 shows
// only existence, not universality, of fixed irreducible forms).
func RunExample3(w io.Writer) Example3Result {
	s := schema.MustOf("A", "B", "C")
	r6 := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1", "c1"),
		tuple.FlatOfStrings("a1", "b2", "c1"),
		tuple.FlatOfStrings("a2", "b1", "c1"),
		tuple.FlatOfStrings("a2", "b1", "c2"),
	})
	res := Example3Result{
		R7: core.MustFromTuples(s, []tuple.Tuple{
			core.TupleOfSets([]string{"a1"}, []string{"b1", "b2"}, []string{"c1"}),
			core.TupleOfSets([]string{"a2"}, []string{"b1"}, []string{"c1", "c2"}),
		}),
		R8: core.MustFromTuples(s, []tuple.Tuple{
			core.TupleOfSets([]string{"a1", "a2"}, []string{"b1"}, []string{"c1"}),
			core.TupleOfSets([]string{"a1"}, []string{"b2"}, []string{"c1"}),
			core.TupleOfSets([]string{"a2"}, []string{"b1"}, []string{"c2"}),
		}),
	}
	aSet := schema.NewAttrSet("A")
	res.R7Fixed = res.R7.FixedOn(aSet)
	res.R8Fixed = res.R8.FixedOn(aSet)
	forms, _ := r6.AllIrreducibleForms(0, 0)
	for _, f := range forms {
		if f.FixedOn(aSet) {
			res.FormsFixed++
		} else {
			res.FormsUnfixed++
		}
	}
	fmt.Fprintln(w, "Example 3 — R6 with MVD A ->-> B | C")
	fmt.Fprintf(w, "R7 (paper): fixed on A = %v\n%s\n", res.R7Fixed, indent(res.R7.String()))
	fmt.Fprintf(w, "R8 (paper): fixed on A = %v\n%s\n", res.R8Fixed, indent(res.R8.String()))
	fmt.Fprintf(w, "all irreducible forms: %d fixed on A, %d not fixed\n",
		res.FormsFixed, res.FormsUnfixed)
	return res
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out[:len(out)-1]
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}
