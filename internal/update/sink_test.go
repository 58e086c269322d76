package update

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
)

// mirrorSink replays every mutation into a shadow relation — exactly
// what the storage write-through does.
type mirrorSink struct {
	rel            *core.Relation
	adds, removes  int
	doubleAdds     int
	removedMissing int
}

func (m *mirrorSink) TupleAdded(t tuple.Tuple) {
	if !m.rel.Add(t) {
		m.doubleAdds++
	}
	m.adds++
}

func (m *mirrorSink) TupleRemoved(t tuple.Tuple) {
	if !m.rel.Remove(t) {
		m.removedMissing++
	}
	m.removes++
}

// TestSinkMirrorsCanonicalForm: a sink replaying mutations must end up
// with exactly the maintained relation after a random workload — the
// contract the disk write-through depends on (every Added is new,
// every Removed is present).
func TestSinkMirrorsCanonicalForm(t *testing.T) {
	s := schema.MustOf("A", "B", "C")
	order := schema.MustPermOf(s, "B", "C", "A")
	m, err := FromRelationIndexed(core.NewRelation(s), order)
	if err != nil {
		t.Fatal(err)
	}
	sink := &mirrorSink{rel: core.NewRelation(s)}
	m.SetSink(sink)

	rng := rand.New(rand.NewSource(17))
	var live []tuple.Flat
	for step := 0; step < 400; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			f := tuple.FlatOfStrings(
				[]string{"a1", "a2", "a3", "a4"}[rng.Intn(4)],
				[]string{"b1", "b2", "b3"}[rng.Intn(3)],
				[]string{"c1", "c2", "c3"}[rng.Intn(3)],
			)
			ch, err := m.Insert(f)
			if err != nil {
				t.Fatal(err)
			}
			if ch {
				live = append(live, f)
			}
		} else {
			i := rng.Intn(len(live))
			if _, err := m.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if sink.doubleAdds != 0 || sink.removedMissing != 0 {
		t.Errorf("sink contract broken: %d double adds, %d removes of missing tuples",
			sink.doubleAdds, sink.removedMissing)
	}
	if !sink.rel.Equal(m.Relation()) {
		t.Error("sink mirror diverged from maintained relation")
	}
	if sink.adds == 0 || sink.removes == 0 {
		t.Errorf("workload too tame: %d adds, %d removes", sink.adds, sink.removes)
	}

	// detaching stops the stream
	m.SetSink(nil)
	before := sink.adds
	if _, err := m.Insert(tuple.FlatOfStrings("zz", "zz", "zz")); err != nil {
		t.Fatal(err)
	}
	if sink.adds != before {
		t.Error("detached sink still receiving mutations")
	}
}
