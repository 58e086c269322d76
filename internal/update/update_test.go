package update

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

func mustMaintainer(t *testing.T, s *schema.Schema, order schema.Permutation) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(s, order)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMaintainerValidation(t *testing.T) {
	s := schema.MustOf("A", "B")
	if _, err := NewMaintainer(s, schema.Permutation{0, 0}); err == nil {
		t.Error("invalid order accepted")
	}
	if _, err := FromRelation(core.NewRelation(s), schema.Permutation{0}); err == nil {
		t.Error("short order accepted")
	}
}

func TestInsertDegreeMismatch(t *testing.T) {
	s := schema.MustOf("A", "B")
	m := mustMaintainer(t, s, schema.IdentityPerm(2))
	if _, err := m.Insert(tuple.FlatOfStrings("x")); err == nil {
		t.Error("short tuple accepted")
	}
	if _, err := m.Delete(tuple.FlatOfStrings("x")); err == nil {
		t.Error("short tuple accepted for delete")
	}
}

func TestInsertDuplicateAndDeleteMissing(t *testing.T) {
	s := schema.MustOf("A", "B")
	m := mustMaintainer(t, s, schema.IdentityPerm(2))
	f := tuple.FlatOfStrings("a", "b")
	if ch, _ := m.Insert(f); !ch {
		t.Error("first insert reported no change")
	}
	if ch, _ := m.Insert(f); ch {
		t.Error("duplicate insert reported change")
	}
	if ch, _ := m.Delete(tuple.FlatOfStrings("z", "b")); ch {
		t.Error("missing delete reported change")
	}
	if ch, _ := m.Delete(f); !ch {
		t.Error("delete reported no change")
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after delete", m.Len())
	}
}

// referenceCanonical rebuilds V_P from the flat set — the ground truth
// the incremental algorithms must match exactly (not just up to
// information equivalence).
func referenceCanonical(s *schema.Schema, flats map[string]tuple.Flat, order schema.Permutation) *core.Relation {
	list := make([]tuple.Flat, 0, len(flats))
	for _, f := range flats {
		list = append(list, f)
	}
	r := core.MustFromFlats(s, list)
	c, _ := r.Canonical(order)
	return c
}

func TestInsertMatchesRebuildExample1(t *testing.T) {
	// Nest order (B, A) on Example-1 data, then insert (a1, b2): the
	// maintained relation must equal V_{BA}(R* + t).
	s := schema.MustOf("A", "B")
	order := schema.MustPermOf(s, "B", "A")
	m, err := FromRelation(core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a2", "b1"),
		tuple.FlatOfStrings("a2", "b2"),
		tuple.FlatOfStrings("a3", "b2"),
	}), order)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(tuple.FlatOfStrings("a1", "b2")); err != nil {
		t.Fatal(err)
	}
	want := core.MustFromTuples(s, []tuple.Tuple{
		core.TupleOfSets([]string{"a1", "a2"}, []string{"b1", "b2"}),
		core.TupleOfSets([]string{"a3"}, []string{"b2"}),
	})
	if !m.Relation().Equal(want) {
		t.Errorf("insert result:\n%v\nwant:\n%v", m.Relation(), want)
	}
}

func TestInsertRequiresSplit(t *testing.T) {
	// R* = {a1,a2} x {b1}; canonical (B,A) = [A(a1,a2) B(b1)].
	// Insert (a1,b2): the stored group must split because a1's B-set
	// grows — the scenario that motivates the unnest inside recons.
	s := schema.MustOf("A", "B")
	order := schema.MustPermOf(s, "B", "A")
	m, _ := FromRelation(core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a2", "b1"),
	}), order)
	if m.Len() != 1 {
		t.Fatalf("precondition: expected single grouped tuple, got\n%v", m.Relation())
	}
	if _, err := m.Insert(tuple.FlatOfStrings("a1", "b2")); err != nil {
		t.Fatal(err)
	}
	want := core.MustFromTuples(s, []tuple.Tuple{
		core.TupleOfSets([]string{"a1"}, []string{"b1", "b2"}),
		core.TupleOfSets([]string{"a2"}, []string{"b1"}),
	})
	if !m.Relation().Equal(want) {
		t.Errorf("result:\n%v\nwant:\n%v", m.Relation(), want)
	}
	if m.Stats().Decompositions == 0 {
		t.Error("expected at least one decomposition")
	}
}

func TestDeletePaperFig2R1(t *testing.T) {
	// Fig. 1 R1 -> Fig. 2 R1: student s1 stops taking course c1. In
	// R1 the update is dropping c1 from the first tuple's Course set.
	s := schema.MustOf("Student", "Course", "Club")
	order := schema.MustPermOf(s, "Course", "Student", "Club")
	var fl []tuple.Flat
	for _, c := range []string{"c1", "c2", "c3"} {
		fl = append(fl, tuple.FlatOfStrings("s1", c, "b1"))
		fl = append(fl, tuple.FlatOfStrings("s3", c, "b1"))
		fl = append(fl, tuple.FlatOfStrings("s2", c, "b2"))
	}
	m, _ := FromRelation(core.MustFromFlats(s, fl), order)
	if _, err := m.Delete(tuple.FlatOfStrings("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	// ground truth
	rest := map[string]tuple.Flat{}
	for _, f := range fl {
		rest[f.Key()] = f
	}
	delete(rest, tuple.FlatOfStrings("s1", "c1", "b1").Key())
	want := referenceCanonical(s, rest, order)
	if !m.Relation().Equal(want) {
		t.Errorf("delete result:\n%v\nwant:\n%v", m.Relation(), want)
	}
}

func TestInsertDeleteRandomizedMatchesRebuild(t *testing.T) {
	// The central Section-4 correctness property: after every single
	// insert or delete, the maintained relation equals the canonical
	// form rebuilt from scratch. Exercised over random workloads,
	// degrees 2..4, several nest orders.
	for _, deg := range []int{2, 3, 4} {
		names := []string{"A", "B", "C", "D"}[:deg]
		s := schema.MustOf(names...)
		perms := schema.AllPermutations(deg)
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(deg*100 + trial)))
			order := perms[rng.Intn(len(perms))]
			m := mustMaintainer(t, s, order)
			live := map[string]tuple.Flat{}
			universe := 3
			for step := 0; step < 120; step++ {
				f := make(tuple.Flat, deg)
				for i := range f {
					f[i] = value.NewInt(int64(rng.Intn(universe)))
				}
				if rng.Intn(3) != 0 { // 2/3 inserts
					ch, err := m.Insert(f)
					if err != nil {
						t.Fatal(err)
					}
					_, had := live[f.Key()]
					if ch == had {
						t.Fatalf("insert change=%v but had=%v", ch, had)
					}
					live[f.Key()] = f
				} else {
					ch, err := m.Delete(f)
					if err != nil {
						t.Fatal(err)
					}
					_, had := live[f.Key()]
					if ch != had {
						t.Fatalf("delete change=%v but had=%v", ch, had)
					}
					delete(live, f.Key())
				}
				want := referenceCanonical(s, live, order)
				if !m.Relation().Equal(want) {
					t.Fatalf("deg=%d trial=%d step=%d order=%v\nmaintained:\n%v\nwant:\n%v",
						deg, trial, step, order, m.Relation(), want)
				}
			}
		}
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	s := schema.MustOf("A", "B")
	m := mustMaintainer(t, s, schema.IdentityPerm(2))
	for i := 0; i < 4; i++ {
		f := tuple.Flat{value.NewInt(int64(i % 2)), value.NewInt(int64(i / 2))}
		if _, err := m.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Compositions == 0 {
		t.Error("expected compositions > 0")
	}
	if st.CandidateScans == 0 {
		t.Error("expected candidate scans > 0")
	}
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.Compositions != 2*st.Compositions {
		t.Error("Stats.Add broken")
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestTheoremA4CompositionCountIndependentOfSize(t *testing.T) {
	// Theorem A-4: the number of compositions per update is bounded by
	// a function of the degree n only, not of |R|. Build relations of
	// growing size and verify the per-insert operation count does not
	// grow with the relation.
	s := schema.MustOf("A", "B", "C")
	order := schema.IdentityPerm(3)
	maxOps := func(rows int) int {
		rng := rand.New(rand.NewSource(int64(rows)))
		m := mustMaintainer(t, s, order)
		for i := 0; i < rows; i++ {
			f := tuple.Flat{
				value.NewInt(int64(rng.Intn(rows / 2))),
				value.NewInt(int64(rng.Intn(8))),
				value.NewInt(int64(rng.Intn(8))),
			}
			if _, err := m.Insert(f); err != nil {
				t.Fatal(err)
			}
		}
		worst := 0
		for i := 0; i < 40; i++ {
			m.ResetStats()
			f := tuple.Flat{
				value.NewInt(int64(rng.Intn(rows / 2))),
				value.NewInt(int64(rng.Intn(8))),
				value.NewInt(int64(rng.Intn(8))),
			}
			if _, err := m.Insert(f); err != nil {
				t.Fatal(err)
			}
			ops := m.Stats().Compositions + m.Stats().Decompositions
			if ops > worst {
				worst = ops
			}
		}
		return worst
	}
	small := maxOps(60)
	large := maxOps(600)
	// Allow slack but large must not scale with |R| (10x data).
	if large > 4*small+8 {
		t.Errorf("per-insert ops grew with |R|: small=%d large=%d", small, large)
	}
}

func TestEmptyRelationOperations(t *testing.T) {
	s := schema.MustOf("A", "B", "C")
	m := mustMaintainer(t, s, schema.IdentityPerm(3))
	if ch, _ := m.Delete(tuple.FlatOfStrings("x", "y", "z")); ch {
		t.Error("delete on empty changed something")
	}
	if ch, _ := m.Insert(tuple.FlatOfStrings("x", "y", "z")); !ch {
		t.Error("insert on empty failed")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	if ch, _ := m.Delete(tuple.FlatOfStrings("x", "y", "z")); !ch {
		t.Error("delete failed")
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after delete", m.Len())
	}
}

func TestFromRelationCanonicalizes(t *testing.T) {
	s := schema.MustOf("A", "B")
	r := core.MustFromFlats(s, []tuple.Flat{
		tuple.FlatOfStrings("a1", "b1"),
		tuple.FlatOfStrings("a2", "b1"),
	})
	order := schema.MustPermOf(s, "A", "B")
	m, err := FromRelation(r, order)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.Canonical(order)
	if !m.Relation().Equal(want) {
		t.Error("FromRelation did not canonicalize")
	}
	// source untouched
	if r.Len() != 2 {
		t.Error("source relation modified")
	}
}
