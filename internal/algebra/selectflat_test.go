package algebra

import (
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/workload"
)

// refSelectFlat is SelectFlat as it was written before it moved into
// core's kernel: R* as a string-indexed Relation, filtered, then nested
// attribute by attribute.
func refSelectFlat(r *core.Relation, p Pred, order schema.Permutation) (*core.Relation, error) {
	flat := core.NewRelation(r.Schema())
	for _, f := range r.Expand() {
		t := tuple.FromFlat(f)
		ok, err := p.Eval(r.Schema(), t)
		if err != nil {
			return nil, err
		}
		if ok {
			flat.Add(t)
		}
	}
	out, _ := flat.Canonical(order)
	return out, nil
}

// rangeWindow returns what an embed_read range statement hands
// SelectFlat — the stored tuples of the 20 students from s1000 on, in
// nfr-spine's sparse population — with the statement's predicate and
// nest order.
func rangeWindow() (*core.Relation, Pred, schema.Permutation) {
	flat := workload.GenEnrollment(1, workload.EnrollmentParams{
		Students: 4000, CoursePool: 600, ClubPool: 80, SemesterPool: 1, CoursesPerStudent: 2, ClubsPerStudent: 1,
	}).R1
	order := schema.MustPermOf(flat.Schema(), "Course", "Club", "Student")
	pred := And(Cmp("Student", GE, value.NewString("s1000")), Cmp("Student", LT, value.NewString("s1020")))
	stored, _ := flat.Canonical(order)
	// the index fetch is a superset: one more student on either side
	fetch := Or(pred, Cmp("Student", EQ, value.NewString("s999")), Cmp("Student", EQ, value.NewString("s1020")))
	window, err := Select(stored, fetch)
	if err != nil {
		panic(err)
	}
	return window, pred, order
}

func TestSelectFlatMatchesReference(t *testing.T) {
	window, pred, order := rangeWindow()
	preds := []Pred{pred, True(), Not(True()), Contains("Course", window.Tuple(0).Set(1).Min())}
	for _, p := range preds {
		for _, ord := range schema.AllPermutations(3) {
			got, err := SelectFlat(window, p, ord)
			want, werr := refSelectFlat(window, p, ord)
			if err != nil || werr != nil {
				t.Fatal(err, werr)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%v under %v: %d tuples, reference has %d", p, ord, got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if !got.Tuple(i).Equal(want.Tuple(i)) {
					t.Fatalf("%v under %v: tuple %d is %v, reference has %v", p, ord, i, got.Tuple(i), want.Tuple(i))
				}
			}
		}
	}
	if got, _ := SelectFlat(window, pred, order); got.Len() == 0 || got.Len() >= window.Len() {
		t.Fatalf("the window statement selected %d of the %d fetched tuples", got.Len(), window.Len())
	}
}

// BenchmarkSelectFlatWindow is the range statement of nfr-spine's
// embed_read: expand the fetched window, filter it flat by flat and
// re-nest the survivors.
func BenchmarkSelectFlatWindow(b *testing.B) {
	window, pred, order := rangeWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectFlat(window, pred, order); err != nil {
			b.Fatal(err)
		}
	}
}
