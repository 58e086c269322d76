package update

import (
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
)

// TestApplyPositionalResults: a logged op sequence, replayed through
// Insert and Delete as nfr-spine replays its update.Op logs, gives each
// op its own result; a malformed op fails alone without poisoning the
// rest, and the relation (and a mirroring sink) end exactly where the
// well-formed ops applied by themselves leave them.
func TestApplyPositionalResults(t *testing.T) {
	s := schema.MustOf("A", "B", "C")
	order := schema.MustPermOf(s, "B", "C", "A")
	m, err := FromRelationIndexed(core.NewRelation(s), order)
	if err != nil {
		t.Fatal(err)
	}
	sink := &mirrorSink{rel: core.NewRelation(s)}
	m.SetSink(sink)
	if _, err := m.Insert(tuple.FlatOfStrings("a1", "b1", "c1")); err != nil {
		t.Fatal(err)
	}

	ops := []Op{
		{F: tuple.FlatOfStrings("a2", "b1", "c1")},               // insert, changes
		{F: tuple.FlatOfStrings("a1", "b1", "c1")},               // duplicate, no-op
		{F: tuple.FlatOfStrings("a9", "b9")},                     // malformed: wrong degree
		{F: tuple.FlatOfStrings("a1", "b1", "c1"), Delete: true}, // delete, changes
		{F: tuple.FlatOfStrings("zz", "zz", "zz"), Delete: true}, // delete missing, no-op
		{F: tuple.FlatOfStrings("a3", "b2", "c2")},               // insert, changes
	}
	res := applyOps(m, ops)
	if len(res) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(res), len(ops))
	}
	wantChanged := []bool{true, false, false, true, false, true}
	for i, r := range res {
		if r.Changed != wantChanged[i] {
			t.Errorf("op %d: changed=%v, want %v", i, r.Changed, wantChanged[i])
		}
		if (i == 2) != (r.Err != nil) {
			t.Errorf("op %d: err=%v", i, r.Err)
		}
	}

	// oracle: the same ops through the one-at-a-time API
	om, err := FromRelationIndexed(core.NewRelation(s), order)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := om.Insert(tuple.FlatOfStrings("a1", "b1", "c1")); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if i == 2 {
			continue // the malformed op
		}
		if op.Delete {
			_, err = om.Delete(op.F)
		} else {
			_, err = om.Insert(op.F)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !m.Relation().Equal(om.Relation()) {
		t.Fatalf("batched application diverged:\ngot  %v\nwant %v", m.Relation(), om.Relation())
	}
	if !sink.rel.Equal(m.Relation()) {
		t.Fatalf("sink mirror diverged from maintained relation")
	}

	// an all-no-op batch changes nothing
	res = applyOps(m, []Op{
		{F: tuple.FlatOfStrings("a2", "b1", "c1")},               // already there
		{F: tuple.FlatOfStrings("no", "no", "no"), Delete: true}, // not there
	})
	for i, r := range res {
		if r.Changed || r.Err != nil {
			t.Errorf("no-op batch op %d: %+v", i, r)
		}
	}
}
