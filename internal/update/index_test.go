package update

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// event is one sink call, in the order the maintainer made it.
type event struct {
	kind byte // '+' added, '-' removed
	t    tuple.Tuple
}

func (e event) String() string { return fmt.Sprintf("%c%v", e.kind, e.t) }

// eventSink records the full Sink call sequence.
type eventSink struct{ events []event }

func (s *eventSink) TupleAdded(t tuple.Tuple)   { s.events = append(s.events, event{'+', t}) }
func (s *eventSink) TupleRemoved(t tuple.Tuple) { s.events = append(s.events, event{'-', t}) }

// lockstep drives the naive maintainer (the paper's literal scan, the
// oracle) and the indexed one with the same ops and compares them after
// every call: same results, same relation tuple for tuple and position
// for position, same composition and decomposition counts, same sink
// events in the same order.
type lockstep struct {
	naive, indexed         *Maintainer
	naiveSink, indexedSink eventSink
	checked                int // events already compared
}

func newLockstep(tb testing.TB, s *schema.Schema, order schema.Permutation) *lockstep {
	tb.Helper()
	l := &lockstep{}
	var err error
	if l.naive, err = NewMaintainer(s, order); err != nil {
		tb.Fatal(err)
	}
	if l.indexed, err = NewMaintainerIndexed(s, order); err != nil {
		tb.Fatal(err)
	}
	if !l.indexed.Indexed() || l.naive.Indexed() {
		tb.Fatal("Indexed() flags wrong")
	}
	l.naive.SetSink(&l.naiveSink)
	l.indexed.SetSink(&l.indexedSink)
	return l
}

// apply runs ops as one Apply batch on both maintainers, or — for a
// single op with single set — through Insert/Delete.
func (l *lockstep) apply(tb testing.TB, ops []Op, single bool) {
	tb.Helper()
	if single && len(ops) == 1 {
		run := func(m *Maintainer) (bool, error) {
			if ops[0].Delete {
				return m.Delete(ops[0].F)
			}
			return m.Insert(ops[0].F)
		}
		c1, err1 := run(l.naive)
		c2, err2 := run(l.indexed)
		if c1 != c2 || (err1 == nil) != (err2 == nil) {
			tb.Fatalf("op %+v diverged: naive %v/%v, indexed %v/%v", ops[0], c1, err1, c2, err2)
		}
	} else {
		r1, r2 := l.naive.Apply(ops), l.indexed.Apply(ops)
		for i := range r1 {
			if r1[i].Changed != r2[i].Changed || (r1[i].Err == nil) != (r2[i].Err == nil) {
				tb.Fatalf("batch op %d %+v diverged: naive %+v, indexed %+v", i, ops[i], r1[i], r2[i])
			}
		}
	}
	l.check(tb)
}

func (l *lockstep) check(tb testing.TB) {
	tb.Helper()
	nr, ir := l.naive.Relation(), l.indexed.Relation()
	if nr.Len() != ir.Len() {
		tb.Fatalf("relation sizes diverged: naive %d, indexed %d\nnaive:\n%v\nindexed:\n%v", nr.Len(), ir.Len(), nr, ir)
	}
	for i := 0; i < nr.Len(); i++ {
		if !nr.Tuple(i).Equal(ir.Tuple(i)) {
			tb.Fatalf("position %d diverged: naive %v, indexed %v", i, nr.Tuple(i), ir.Tuple(i))
		}
	}
	ns, is := l.naive.Stats(), l.indexed.Stats()
	if ns.Compositions != is.Compositions || ns.Decompositions != is.Decompositions {
		tb.Fatalf("operation counts diverged: naive %+v, indexed %+v", ns, is)
	}
	ne, ie := l.naiveSink.events, l.indexedSink.events
	if len(ne) != len(ie) {
		tb.Fatalf("sink saw %d events from naive, %d from indexed", len(ne), len(ie))
	}
	for i := l.checked; i < len(ne); i++ {
		if ne[i].kind != ie[i].kind || !ne[i].t.Equal(ie[i].t) {
			tb.Fatalf("sink event %d diverged: naive %v, indexed %v", i, ne[i], ie[i])
		}
	}
	l.checked = len(ne)
}

// mixedAtoms is a per-attribute pool built to collide wherever two
// atoms could be confused: Int 1 beside String "1" (one rendering, two
// kinds), null, strings the renderer must quote, both float zeros, NaN.
var mixedAtoms = []value.Atom{
	value.NewInt(1), value.NewString("1"), value.NullAtom(),
	value.NewString("a b"), value.NewString(""), value.NewString("x,y"),
	value.NewInt(2), value.NewBool(true), value.NewString("true"),
	value.NewFloat(1.5), value.NewFloat(math.NaN()), value.NewFloat(0),
}

// randomOps draws a stream over a small universe (so inserts collide,
// nest and split) of single ops and batches.
func randomOps(rng *rand.Rand, deg, universe, steps int, atoms []value.Atom) [][]Op {
	// each attribute sees its own window of the pool
	pick := func(attr int) value.Atom { return atoms[(attr*5+rng.Intn(universe))%len(atoms)] }
	out := make([][]Op, steps)
	for i := range out {
		n := 1
		if rng.Intn(5) == 0 {
			n = 2 + rng.Intn(4)
		}
		for ; n > 0; n-- {
			f := make(tuple.Flat, deg)
			for a := range f {
				f[a] = pick(a)
			}
			out[i] = append(out[i], Op{F: f, Delete: rng.Intn(3) == 0})
		}
	}
	return out
}

// TestIndexedMatchesNaiveRandomized is the indexed maintainer's
// correctness contract: in lockstep with the naive scan it reaches the
// same relation, counts and sink stream after every op — degrees 1..5,
// every nest order up to degree 4, atoms of mixed kinds, single ops and
// Apply batches.
func TestIndexedMatchesNaiveRandomized(t *testing.T) {
	for deg := 1; deg <= 5; deg++ {
		s := schema.MustOf([]string{"A", "B", "C", "D", "E"}[:deg]...)
		orders := schema.AllPermutations(deg)
		if deg == 5 {
			rng := rand.New(rand.NewSource(5))
			rng.Shuffle(len(orders), func(i, j int) { orders[i], orders[j] = orders[j], orders[i] })
			orders = orders[:8]
		}
		for oi, order := range orders {
			for _, atoms := range [][]value.Atom{value.Ints(0, 1, 2, 3), mixedAtoms} {
				rng := rand.New(rand.NewSource(int64(1000*deg + oi)))
				l := newLockstep(t, s, order)
				for step, ops := range randomOps(rng, deg, 3+rng.Intn(2), 100, atoms) {
					if step%7 == 3 { // a malformed op must be skipped alike
						ops = append(ops, Op{F: make(tuple.Flat, deg+1)})
					}
					l.apply(t, ops, step%2 == 0)
				}
				if l.naive.Stats().Compositions == 0 || (deg > 1 && l.naive.Stats().Decompositions == 0) {
					t.Fatalf("deg=%d order=%v: workload too tame: %+v", deg, order, l.naive.Stats())
				}
			}
		}
	}
}

// enrollShape sizes the benchmark's enrollment population (Student,
// Course, Club; every student takes the product of its courses and
// clubs, so the MVD holds): set sizes cycle through 1..maxCourses ×
// 1..maxClubs, the seed picks which courses and clubs.
type enrollShape struct {
	name                                       string
	coursePool, clubPool, maxCourses, maxClubs int
}

var (
	denseShape  = enrollShape{"dense", 30, 8, 8, 4}
	sparseShape = enrollShape{"sparse", 600, 80, 4, 2}

	enrollSchema = schema.MustOf("Student", "Course", "Club")
	enrollOrder  = schema.MustPermOf(enrollSchema, "Course", "Club", "Student")
)

func (sh enrollShape) flats(rng *rand.Rand, students int) []tuple.Flat {
	var out []tuple.Flat
	for i := 0; i < students; i++ {
		courses := rng.Perm(sh.coursePool)[:1+i%sh.maxCourses]
		clubs := rng.Perm(sh.clubPool)[:1+(i/sh.maxCourses)%sh.maxClubs]
		for _, c := range courses {
			for _, b := range clubs {
				out = append(out, tuple.FlatOfStrings(fmt.Sprintf("s%05d", i), fmt.Sprintf("c%03d", c), fmt.Sprintf("b%02d", b)))
			}
		}
	}
	return out
}

// churn is the benchmark's write stream over students·2 students' rows:
// the first half is the initial load, then ops alternate between
// inserting the next unseen row and deleting the oldest live one, so
// the relation keeps its size and shape.
type churn struct {
	flats      []tuple.Flat
	head, tail int
}

func newChurn(sh enrollShape, students int, seed int64) *churn {
	flats := sh.flats(rand.New(rand.NewSource(seed)), 2*students)
	return &churn{flats: flats, tail: len(flats) / 2}
}

func (c *churn) initial() []Op {
	ops := make([]Op, c.tail)
	for i := range ops {
		ops[i] = Op{F: c.flats[i]}
	}
	return ops
}

func (c *churn) next(i int) Op {
	if i%2 == 0 {
		c.tail++
		return Op{F: c.flats[(c.tail-1)%len(c.flats)]}
	}
	c.head++
	return Op{F: c.flats[(c.head-1)%len(c.flats)], Delete: true}
}

// TestIndexedMatchesNaiveBenchShapes runs the lockstep comparison on
// the two populations nfr-spine writes: dense (fat posting lists on
// Course and Club) and sparse.
func TestIndexedMatchesNaiveBenchShapes(t *testing.T) {
	for _, sh := range []enrollShape{denseShape, sparseShape} {
		t.Run(sh.name, func(t *testing.T) {
			c := newChurn(sh, 150, 1)
			l := newLockstep(t, enrollSchema, enrollOrder)
			l.apply(t, c.initial(), false)
			for i := 0; i < 1500; i++ {
				l.apply(t, []Op{c.next(i)}, i%3 == 0)
			}
		})
	}
}

// TestIndexedRunsRepeatExactly: the indexes are ordered, so the same
// stream examines the same tuples in the same order on every run —
// Stats (scans included) and the sink's event sequence are identical.
func TestIndexedRunsRepeatExactly(t *testing.T) {
	run := func() (Stats, []event) {
		c := newChurn(denseShape, 150, 7)
		m, err := NewMaintainerIndexed(enrollSchema, enrollOrder)
		if err != nil {
			t.Fatal(err)
		}
		m.Apply(c.initial())
		var sink eventSink
		m.SetSink(&sink)
		m.ResetStats()
		for i := 0; i < 2000; i++ {
			m.Apply([]Op{c.next(i)})
		}
		return m.Stats(), sink.events
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ between runs: %+v vs %+v", s1, s2)
	}
	if s1.CandidateScans == 0 || s1.Compositions == 0 || s1.Decompositions == 0 {
		t.Fatalf("workload too tame: %+v", s1)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ between runs: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].kind != e2[i].kind || !e1[i].t.Equal(e2[i].t) {
			t.Fatalf("event %d differs between runs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestIndexedScansFewerTuples(t *testing.T) {
	// The index's payoff: on a large relation the indexed candidate
	// search examines far fewer tuples per update than the naive scan.
	s := schema.MustOf("A", "B", "C")
	order := schema.IdentityPerm(3)
	load := func(m *Maintainer) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 3000; i++ {
			f := tuple.Flat{
				value.NewInt(int64(rng.Intn(1500))),
				value.NewInt(int64(rng.Intn(10))),
				value.NewInt(int64(rng.Intn(10))),
			}
			if _, err := m.Insert(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	naive, _ := NewMaintainer(s, order)
	indexed, _ := NewMaintainerIndexed(s, order)
	load(naive)
	load(indexed)
	naive.ResetStats()
	indexed.ResetStats()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		f := tuple.Flat{
			value.NewInt(int64(rng.Intn(1500))),
			value.NewInt(int64(rng.Intn(10))),
			value.NewInt(int64(rng.Intn(10))),
		}
		naive.Insert(f)
		indexed.Insert(f)
	}
	ns, is := naive.Stats().CandidateScans, indexed.Stats().CandidateScans
	if is*10 >= ns {
		t.Errorf("index did not pay off: naive scans %d, indexed %d", ns, is)
	}

	// On the benchmark's dense shape a write examines a handful of
	// tuples, however fat the Course and Club posting lists would be.
	c := newChurn(denseShape, 600, 1)
	m, err := NewMaintainerIndexed(enrollSchema, enrollOrder)
	if err != nil {
		t.Fatal(err)
	}
	m.Apply(c.initial())
	m.ResetStats()
	const ops = 2000
	for i := 0; i < ops; i++ {
		m.Apply([]Op{c.next(i)})
	}
	if scans := m.Stats().CandidateScans; scans > 8*ops {
		t.Errorf("dense shape: %.1f scans per op over %d tuples, want ≤ 8", float64(scans)/ops, m.Len())
	}
}

func TestFromRelationIndexed(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a2", "b1"),
	})
	order := schema.MustPermOf(s, "B", "A")
	m, err := FromRelationIndexed(r, order)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Indexed() {
		t.Fatal("not indexed")
	}
	// the preloaded tuples must be findable through the index
	if ch, err := m.Delete(tuple.FlatOfStrings("a1", "b1")); err != nil || !ch {
		t.Fatalf("delete through preloaded index: %v %v", ch, err)
	}
	want, _ := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a2", "b1"),
	}).Canonical(order)
	if !m.Relation().Equal(want) {
		t.Errorf("relation after indexed delete:\n%v", m.Relation())
	}
	if _, err := FromRelationIndexed(r, schema.Permutation{9, 9}); err == nil {
		t.Error("bad order accepted")
	}
}

func TestAtomIndexAddRemove(t *testing.T) {
	ix := newTupleIndex(0)
	t1 := core.TupleOfSets([]string{"x", "y"}, []string{"b"})
	t2 := core.TupleOfSets([]string{"y"}, []string{"c"})
	t3 := core.TupleOfSets([]string{"z"}, []string{"b"}) // agrees with t1 except on attribute 0
	for _, tp := range []tuple.Tuple{t1, t2, t3} {
		ix.add(tp)
	}
	if got := ix.containing(value.NewString("y")); len(got) != 2 || !got[0].Equal(t1) || !got[1].Equal(t2) {
		t.Errorf("containing y = %v, want t1 then t2", got)
	}
	if got := ix.containing(value.NewString("x")); len(got) != 1 {
		t.Errorf("containing x = %d entries", len(got))
	}
	// the shortest list among the tuple's atoms
	if got := ix.containingAll(t1); len(got) != 1 || !got[0].Equal(t1) {
		t.Errorf("containingAll(t1) = %v", got)
	}
	if got := ix.agreeingExceptLast(t3); len(got) != 2 || !got[0].Equal(t1) || !got[1].Equal(t3) {
		t.Errorf("agreeingExceptLast(t3) = %v, want t1 then t3", got)
	}
	ix.remove(t1)
	if got := ix.containing(value.NewString("x")); got != nil {
		t.Error("x posting not cleared")
	}
	if _, ok := ix.byAtom[value.NewString("x")]; ok {
		t.Error("empty posting list left in the map")
	}
	if got := ix.containing(value.NewString("y")); len(got) != 1 || !got[0].Equal(t2) {
		t.Errorf("containing y after remove = %v", got)
	}
	if got := ix.agreeingExceptLast(t3); len(got) != 1 || !got[0].Equal(t3) {
		t.Errorf("agreeingExceptLast(t3) after remove = %v", got)
	}
	// kind discrimination: string "1" vs int 1 (one Tuple.Key, two atoms)
	ix.add(core.TupleOfSets([]string{"1"}, []string{"b"}))
	if got := ix.containing(value.NewInt(1)); got != nil {
		t.Error("kind collision in atom keys")
	}
	// NaN equals nothing as a Go map key; the index must still find it
	nan := tuple.FromFlat(tuple.Flat{value.NewFloat(math.NaN()), value.NewString("b")})
	ix.add(nan)
	if got := ix.containing(value.NewFloat(math.NaN())); len(got) != 1 {
		t.Errorf("containing NaN = %d entries", len(got))
	}
	ix.remove(nan)
	if got := ix.containing(value.NewFloat(math.NaN())); got != nil {
		t.Error("NaN posting not cleared")
	}

	// A hash collision: two tuples that do NOT agree outside attribute 0
	// filed under one byRest key. Removal identifies the tuple, not the
	// bucket, and keeps the order of what stays.
	b := make(buckets[uint64])
	u1 := core.TupleOfSets([]string{"p"}, []string{"q"})
	u2 := core.TupleOfSets([]string{"p"}, []string{"r"})
	u3 := core.TupleOfSets([]string{"p"}, []string{"s"})
	for _, u := range []tuple.Tuple{u1, u2, u3} {
		b.add(7, u)
	}
	b.remove(7, u2)
	if got := b[7]; len(got) != 2 || !got[0].Equal(u1) || !got[1].Equal(u3) {
		t.Errorf("after removing the middle of a colliding bucket: %v", got)
	}
	b.remove(7, u2) // absent: a no-op
	b.remove(7, u1)
	b.remove(7, u3)
	if _, ok := b[7]; ok {
		t.Error("emptied bucket left in the map")
	}
}

// TestCandtIgnoresHashCollisions plants a tuple in the wrong byRest
// bucket (what a HashExcept collision looks like) and checks candt
// still takes the true candidate and never the impostor.
func TestCandtIgnoresHashCollisions(t *testing.T) {
	s := schema.MustOf("A", "B")
	m, err := NewMaintainerIndexed(s, schema.IdentityPerm(2))
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(tuple.FlatOfStrings("a1", "b1"))
	m.Insert(tuple.FlatOfStrings("a2", "b9"))
	impostor, floating := m.Relation().Tuple(1), tuple.FromFlat(tuple.FlatOfStrings("a1", "b2"))
	h := floating.HashExcept(1)
	m.idx.byRest[h] = append([]tuple.Tuple{impostor}, m.idx.byRest[h]...)
	p, k, found := m.candt(floating)
	if !found || k != 1 || !p.Equal(m.Relation().Tuple(0)) {
		t.Fatalf("candt = %v at %d (found %v), want %v at 1", p, k, found, m.Relation().Tuple(0))
	}
}

// FuzzMaintainerIndexedVsNaive decodes an op stream from bytes — byte 0
// the degree, byte 1 the nest order, then one byte of op kind and one
// byte per attribute for each op — and runs it in lockstep.
func FuzzMaintainerIndexedVsNaive(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 0, 1, 2, 0, 2, 1, 1, 1, 1})
	f.Add([]byte{3, 4, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 10, 1, 0, 0, 2})
	f.Add([]byte{4, 23, 0, 0, 1, 2, 3, 0, 1, 1, 2, 3, 0, 0, 1, 2, 4, 2, 0, 1, 2, 3, 0, 5, 1, 2, 3, 1, 0, 1, 2, 4})
	f.Add([]byte{3, 2, 0, 1, 1, 1, 0, 0, 1, 1, 0, 10, 1, 1, 0, 1, 10, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		deg := 1 + int(data[0])%4
		s := schema.MustOf([]string{"A", "B", "C", "D"}[:deg]...)
		orders := schema.AllPermutations(deg)
		l := newLockstep(t, s, orders[int(data[1])%len(orders)])
		data = data[2:]
		var batch []Op
		for len(data) > deg && l.checked < 1<<14 {
			f := make(tuple.Flat, deg)
			for a := range f {
				f[a] = mixedAtoms[int(data[1+a])%len(mixedAtoms)]
			}
			batch = append(batch, Op{F: f, Delete: data[0]&1 != 0})
			if data[0]&2 == 0 { // bit 1 set: the batch continues
				l.apply(t, batch, data[0]&4 == 0)
				batch = nil
			}
			data = data[1+deg:]
		}
		if len(batch) > 0 {
			l.apply(t, batch, false)
		}
	})
}
