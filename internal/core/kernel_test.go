package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
	"repro/internal/workload"
)

// The reference kernel: Expand, Nest, Canonical and CanonicalFromFlats
// as they stood before kernel.go, string keys and all. The tests below
// hold the kernel to it position by position, and the benchmarks time
// it beside the kernel.

func refExpand(r *core.Relation) []tuple.Flat {
	seen := make(map[string]bool)
	var out []tuple.Flat
	for _, t := range r.Tuples() {
		for _, f := range t.Expand() {
			k := f.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func refNest(r *core.Relation, i int) (*core.Relation, int) {
	type group struct {
		first tuple.Tuple
		set   vset.Set
		size  int
	}
	var order []string
	groups := make(map[string]*group)
	for _, t := range r.Tuples() {
		k := t.KeyExcept(i)
		g, ok := groups[k]
		if !ok {
			groups[k] = &group{first: t, set: t.Set(i), size: 1}
			order = append(order, k)
			continue
		}
		g.set = g.set.Union(t.Set(i))
		g.size++
	}
	out := core.NewRelation(r.Schema())
	comps := 0
	for _, k := range order {
		g := groups[k]
		out.Add(g.first.WithSet(i, g.set))
		comps += g.size - 1
	}
	return out, comps
}

func refCanonical(r *core.Relation, p schema.Permutation) (*core.Relation, int) {
	total := 0
	for _, i := range p {
		var c int
		r, c = refNest(r, i)
		total += c
	}
	return r, total
}

func refCanonicalFromFlats(r *core.Relation, p schema.Permutation) (*core.Relation, int) {
	return refCanonical(core.MustFromFlats(r.Schema(), refExpand(r)), p)
}

// refIsCanonicalFor is IsCanonicalFor as it stood before the linear
// check: rebuild V_P from R* and compare.
func refIsCanonicalFor(r *core.Relation, p schema.Permutation) bool {
	canon, _ := r.CanonicalFromFlats(p)
	return r.Equal(canon)
}

// sameRelation requires got and want to hold equal tuples at equal
// positions.
func sameRelation(t testing.TB, what string, got, want *core.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, reference has %d", what, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Tuple(i), want.Tuple(i); !g.Equal(w) || g.Key() != w.Key() {
			t.Fatalf("%s: tuple %d is %v, reference has %v", what, i, g, w)
		}
	}
}

// checkKernel compares every entry point of the kernel with the
// reference on r under p.
func checkKernel(t testing.TB, r *core.Relation, p schema.Permutation) {
	t.Helper()
	wantFlats := refExpand(r)
	gotFlats := r.Expand()
	if len(gotFlats) != len(wantFlats) {
		t.Fatalf("Expand: %d flats, reference has %d", len(gotFlats), len(wantFlats))
	}
	for i, w := range wantFlats {
		if g := gotFlats[i]; !g.Equal(w) || g.Key() != w.Key() {
			t.Fatalf("Expand: flat %d is %v, reference has %v", i, g, w)
		}
	}
	sameRelation(t, "ExpandRelation", r.ExpandRelation(), core.MustFromFlats(r.Schema(), wantFlats))
	for i := 0; i < r.Schema().Degree(); i++ {
		got, gc := r.Nest(i)
		want, wc := refNest(r, i)
		sameRelation(t, fmt.Sprintf("Nest(%d)", i), got, want)
		if gc != wc {
			t.Fatalf("Nest(%d): %d compositions, reference counts %d", i, gc, wc)
		}
	}
	got, gc := r.Canonical(p)
	want, wc := refCanonical(r, p)
	sameRelation(t, fmt.Sprintf("Canonical(%v)", p), got, want)
	if gc != wc {
		t.Fatalf("Canonical(%v): %d compositions, reference counts %d", p, gc, wc)
	}
	got, gc = r.CanonicalFromFlats(p)
	want, wc = refCanonicalFromFlats(r, p)
	sameRelation(t, fmt.Sprintf("CanonicalFromFlats(%v)", p), got, want)
	if gc != wc {
		t.Fatalf("CanonicalFromFlats(%v): %d compositions, reference counts %d", p, gc, wc)
	}
	// selection on R*: everything, nothing, and every other flat tuple
	for _, step := range []int{1, 0, 2} {
		n := 0
		keep := func(tuple.Tuple) (bool, error) { n++; return step > 0 && n%step == 0, nil }
		got, err := r.CanonicalWhere(p, keep)
		if err != nil || n != len(wantFlats) {
			t.Fatalf("CanonicalWhere(%v): saw %d of %d flat tuples, %v", p, n, len(wantFlats), err)
		}
		var kept []tuple.Flat
		for k, f := range wantFlats {
			if step > 0 && (k+1)%step == 0 {
				kept = append(kept, f)
			}
		}
		want, _ := refCanonical(core.MustFromFlats(r.Schema(), kept), p)
		sameRelation(t, fmt.Sprintf("CanonicalWhere(%v, 1 in %d)", p, step), got, want)
	}
}

// atomPools are the atoms the generated relations draw from, by kind.
// Renderings are distinct across kinds (Tuple.Key() leaves the kind
// out, so Int 1 beside String "1" is one tuple to a Relation), strings
// include ones Atom.String() must quote, and the ints' decimal order is
// not their numeric order.
var atomPools = [][]value.Atom{
	{value.NullAtom()},
	{value.NewBool(false), value.NewBool(true)},
	{value.NewInt(-11), value.NewInt(-2), value.NewInt(-1), value.NewInt(0), value.NewInt(3), value.NewInt(9), value.NewInt(10), value.NewInt(100)},
	{value.NewFloat(0.5), value.NewFloat(-2.25), value.NewFloat(1e21), value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1))},
	value.Strings("a", "b", "B", "ab", "a b", "", "x,y", `q"t`, "é", "\x01", "s-1", "z.9", "_", "10x", "a\x1fb"),
}

// pickAtom maps two bytes to an atom: kinds cycle, strings twice as
// likely.
func pickAtom(kind, which byte) value.Atom {
	pool := atomPools[[]int{0, 1, 2, 3, 4, 4}[int(kind)%6]]
	return pool[int(which)%len(pool)]
}

// relationFromBytes decodes a relation of degree 1..4: every tuple
// takes, per component, a size byte and two bytes per atom. Overlapping
// and duplicate tuples are wanted.
func relationFromBytes(data []byte) (*core.Relation, schema.Permutation) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	deg := 1 + int(next())%4
	perms := schema.AllPermutations(deg)
	p := perms[int(next())%len(perms)]
	s := schema.MustOf([]string{"A", "B", "C", "D"}[:deg]...)
	r := core.NewRelation(s)
	for len(data) > 0 && r.Len() < 40 {
		sets := make([]vset.Set, deg)
		for c := range sets {
			n := 1 + int(next())%3
			atoms := make([]value.Atom, n)
			for k := range atoms {
				atoms[k] = pickAtom(next(), next())
			}
			sets[c] = vset.New(atoms...)
		}
		r.Add(tuple.MustNew(sets...))
	}
	return r, p
}

func TestKernelMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		data := make([]byte, 2+rng.Intn(200))
		rng.Read(data)
		r, p := relationFromBytes(data)
		checkKernel(t, r, p)
		// an already nested input: the same content under another order
		perms := schema.AllPermutations(r.Schema().Degree())
		nested, _ := r.CanonicalFromFlats(perms[rng.Intn(len(perms))])
		checkKernel(t, nested, p)
	}
}

// TestKernelEveryPermutation: one mixed-kind relation per degree ≤ 4,
// under every permutation, flat and nested.
func TestKernelEveryPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for deg := 1; deg <= 4; deg++ {
		s := schema.MustOf([]string{"A", "B", "C", "D"}[:deg]...)
		var flats []tuple.Flat
		for i := 0; i < 60; i++ {
			f := make(tuple.Flat, deg)
			for c := range f {
				f[c] = pickAtom(byte(rng.Intn(6)), byte(rng.Intn(4)))
			}
			flats = append(flats, f)
		}
		r := core.MustFromFlats(s, flats)
		for _, p := range schema.AllPermutations(deg) {
			checkKernel(t, r, p)
			nested, _ := r.Canonical(p)
			for _, q := range schema.AllPermutations(deg) {
				checkKernel(t, nested, q)
			}
		}
	}
}

// benchShapes are the populations of the four nfr-spine workloads
// (bench/workloads.go) as workload.GenEnrollment parameters: the same
// pools and the same mean set sizes.
var benchShapes = map[string]workload.EnrollmentParams{
	"embed_write":    {Students: 600, CoursePool: 30, ClubPool: 8, SemesterPool: 1, CoursesPerStudent: 4, ClubsPerStudent: 2},
	"embed_read":     {Students: 4000, CoursePool: 600, ClubPool: 80, SemesterPool: 1, CoursesPerStudent: 2, ClubsPerStudent: 1},
	"wire_mixed":     {Students: 1500, CoursePool: 600, ClubPool: 80, SemesterPool: 1, CoursesPerStudent: 2, ClubsPerStudent: 1},
	"reopen_recover": {Students: 250, CoursePool: 150, ClubPool: 20, SemesterPool: 1, CoursesPerStudent: 4, ClubsPerStudent: 2},
}

// enrollOrder is the benchmark's nest order (Course, Club, Student).
var enrollOrder = schema.Permutation{1, 2, 0}

func TestKernelBenchShapes(t *testing.T) {
	for name, params := range benchShapes {
		if testing.Short() && params.Students > 1000 {
			continue
		}
		flat := workload.GenEnrollment(1, params).R1
		checkKernel(t, flat, enrollOrder)
		stored, _ := flat.Canonical(enrollOrder)
		checkKernel(t, stored, enrollOrder)
		t.Logf("%s: %d flats, %d stored tuples", name, flat.Len(), stored.Len())
	}
}

func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 4, 0, 1, 4, 1, 0, 4, 2, 0, 4, 0, 0, 4, 3})
	f.Add([]byte{3, 5, 2, 2, 0, 2, 6, 1, 3, 3, 0, 4, 7, 2, 4, 5, 4, 9, 0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Add([]byte("\x03\x02the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, p := relationFromBytes(data)
		checkKernel(t, r, p)
	})
}

// hostileAtoms collide wherever two atoms could be confused: Int 1
// beside String "1", Bool true beside String "true", both float zeros
// (equal atoms, different bits), NaN (equal to itself as an atom) and
// null.
var hostileAtoms = []value.Atom{
	value.NewInt(1), value.NewString("1"), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.NaN()), value.NullAtom(), value.NewBool(true), value.NewString("true"), value.NewInt(2),
}

// The inputs the verifier is held to the reference on.
const (
	caseVP      = iota // V_P of random flats: canonical
	caseVQ             // V_Q for another order Q: irreducible, usually not V_P
	caseNest           // one Nest, on p[0]
	case1NF            // the flats themselves
	caseOverlap        // hand-built tuples, expansions free to overlap
	caseSplit          // V_P with one tuple split in two at p[j]: never canonical
	caseKinds
)

// verifierCase decodes a relation of degree 1..4, a nest order P and
// one of the cases above from bytes: a degree byte, an order byte, a
// case byte, an argument byte (Q, or j), then atoms from hostileAtoms,
// one byte each (for caseOverlap, each tuple component is a size byte
// and then its atoms). split reports whether caseSplit found a tuple
// to split.
func verifierCase(data []byte) (r *core.Relation, p schema.Permutation, kind int, split bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	deg := 1 + next()%4
	perms := schema.AllPermutations(deg)
	pi := next() % len(perms)
	p, kind, arg := perms[pi], next()%caseKinds, next()
	s := schema.MustOf([]string{"A", "B", "C", "D"}[:deg]...)
	atom := func() value.Atom { return hostileAtoms[next()%len(hostileAtoms)] }
	if kind == caseOverlap {
		r = core.NewRelation(s)
		for len(data) > 0 && r.Len() < 12 {
			sets := make([]vset.Set, deg)
			for c := range sets {
				atoms := make([]value.Atom, 1+next()%3)
				for k := range atoms {
					atoms[k] = atom()
				}
				sets[c] = vset.New(atoms...)
			}
			r.Add(tuple.MustNew(sets...))
		}
		return r, p, kind, false
	}
	var flats []tuple.Flat
	for len(data) > 0 && len(flats) < 40 {
		f := make(tuple.Flat, deg)
		for c := range f {
			f[c] = atom()
		}
		flats = append(flats, f)
	}
	r = core.MustFromFlats(s, flats)
	switch kind {
	case caseVP:
		r, _ = r.Canonical(p)
	case caseVQ:
		if len(perms) > 1 {
			r, _ = r.Canonical(perms[(pi+1+arg%(len(perms)-1))%len(perms)])
		}
	case caseNest:
		r, _ = r.Nest(p[0])
	case caseSplit:
		r, _ = r.Canonical(p)
		c := p[arg%deg]
		ts := r.Tuples()
		for i, t := range ts {
			if atoms := t.Set(c).Atoms(); len(atoms) > 1 {
				ts[i] = t.WithSet(c, vset.Single(atoms[0]))
				ts = append(ts, t.WithSet(c, vset.New(atoms[1:]...)))
				r, split = core.MustFromTuples(s, ts), true
				break
			}
		}
	}
	return r, p, kind, split
}

// checkVerifier holds IsCanonicalFor to the reference on one case and
// returns the answer.
func checkVerifier(t testing.TB, data []byte) bool {
	t.Helper()
	r, p, kind, split := verifierCase(data)
	got, want := r.IsCanonicalFor(p), refIsCanonicalFor(r, p)
	if got != want || (kind == caseVP && !got) || (split && got) {
		t.Fatalf("case %d, P=%v: IsCanonicalFor = %v, reference %v, over\n%v", kind, p, got, want, r)
	}
	return got
}

// verifierSeed is a case's header followed by n atom bytes drawn from
// the first four atoms, so that the flats nest.
func verifierSeed(deg, perm, kind, arg, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{byte(deg - 1), byte(perm), byte(kind), byte(arg)}
	for i := 0; i < n; i++ {
		data = append(data, byte(rng.Intn(4)))
	}
	return data
}

// TestIsCanonicalForMatchesReference: every degree 1..4, every order,
// every case, against CanonicalFromFlats + Equal; both answers occur,
// and every case but V_P answers "no" somewhere.
func TestIsCanonicalForMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var answers [caseKinds][2]int
	for deg := 1; deg <= 4; deg++ {
		for perm := range schema.AllPermutations(deg) {
			for kind := 0; kind < caseKinds; kind++ {
				for round := 0; round < 8; round++ {
					data := verifierSeed(deg, perm, kind, rng.Intn(24), 6+rng.Intn(30), rng.Int63())
					if kind == caseOverlap || round%2 == 1 { // the whole pool
						for i := 4; i < len(data); i++ {
							data[i] = byte(rng.Intn(len(hostileAtoms)))
						}
					}
					if checkVerifier(t, data) {
						answers[kind][1]++
					} else {
						answers[kind][0]++
					}
				}
			}
		}
	}
	t.Logf("answers (no, yes) by case: %v", answers)
	for kind, a := range answers {
		if a[0] == 0 && kind != caseVP || a[1] == 0 && kind != caseSplit {
			t.Errorf("case %d answered no %d times and yes %d times", kind, a[0], a[1])
		}
	}
}

func FuzzIsCanonicalFor(f *testing.F) {
	f.Add([]byte{})
	for kind := 0; kind < caseKinds; kind++ {
		for deg := 2; deg <= 3; deg++ {
			for arg := 0; arg < deg; arg++ {
				f.Add(verifierSeed(deg, arg+kind, kind, arg, 3*deg*deg, int64(10*kind+deg)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkVerifier(t, data) })
}

// TestRemoveKeepsOrderAndIndex: Remove shifts the keys it keeps beside
// the tuples, so every survivor is found, in order, after removals from
// the front, the middle and the back, in clones and after a sort.
func TestRemoveKeepsOrderAndIndex(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := core.NewRelation(s)
	var ts []tuple.Tuple
	for i := 0; i < 9; i++ {
		tp := core.TupleOfSets([]string{fmt.Sprintf("a%d", i)}, []string{"b"})
		ts = append(ts, tp)
		r.Add(tp)
	}
	for _, i := range []int{0, 3, 6} { // positions in what is left
		if !r.Remove(ts[i]) {
			t.Fatalf("Remove(%v) found nothing", ts[i])
		}
		ts = append(ts[:i], ts[i+1:]...)
		if r.Len() != len(ts) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(ts))
		}
		for j, want := range ts {
			if !r.Tuple(j).Equal(want) || !r.Has(want) {
				t.Fatalf("position %d holds %v, want %v", j, r.Tuple(j), want)
			}
		}
		clone := r.Clone()
		if !clone.Remove(ts[len(ts)-1]) || clone.Len() != len(ts)-1 || r.Len() != len(ts) {
			t.Fatal("a clone's Remove reached the original")
		}
	}
	r.SortTuples()
	if !r.Remove(ts[1]) || r.Has(ts[1]) || !r.Has(ts[0]) || !r.Has(ts[2]) {
		t.Fatal("Remove after SortTuples lost the index")
	}
}

// storedForm is the canonical form of a benchShapes population in heap
// order: a heap hands its tuples over in no particular order.
func storedForm(shape string) *core.Relation {
	flat := workload.GenEnrollment(1, benchShapes[shape]).R1
	canon, _ := flat.Canonical(enrollOrder)
	ts := canon.Tuples()
	rand.New(rand.NewSource(1)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return core.MustFromTuples(flat.Schema(), ts)
}

// BenchmarkCanonicalFromFlats re-canonicalises the stored form of the
// reopen_recover population, in heap order: the repair the first write
// after Open makes of a heap that fails IsCanonicalFor, and the
// reference that check is held to. The reference sub-benchmark is the
// string-keyed kernel on the same input.
func BenchmarkCanonicalFromFlats(b *testing.B) {
	stored := storedForm("reopen_recover")
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stored.CanonicalFromFlats(enrollOrder)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refCanonicalFromFlats(stored, enrollOrder)
		}
	})
}

// BenchmarkIsCanonicalFor checks the stored form of the reopen_recover
// and embed_write populations, in heap order, as the first write after
// Open does before it adopts the heap; the rebuild sub-benchmarks time
// the reference check (CanonicalFromFlats + Equal) on the same input.
func BenchmarkIsCanonicalFor(b *testing.B) {
	for _, shape := range []string{"reopen_recover", "embed_write"} {
		stored := storedForm(shape)
		for _, c := range []struct {
			name  string
			check func(*core.Relation, schema.Permutation) bool
		}{{"check", (*core.Relation).IsCanonicalFor}, {"rebuild", refIsCanonicalFor}} {
			b.Run(shape+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !c.check(stored, enrollOrder) {
						b.Fatal("the stored canonical form failed the check")
					}
				}
			})
		}
	}
}

// BenchmarkRelationRemove removes the oldest tuple of the embed_write
// canonical form and adds it back at the end, as a maintainer's
// decompose-and-recompose does.
func BenchmarkRelationRemove(b *testing.B) {
	flat := workload.GenEnrollment(1, benchShapes["embed_write"]).R1
	r, _ := flat.Canonical(enrollOrder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.Tuple(0)
		r.Remove(t)
		r.Add(t)
	}
}
