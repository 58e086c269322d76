package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
)

// flatModel is the reference the differential tests hold the engine to:
// the paper's definition of a relation's state, not its algorithm. It
// keeps R*, the set of flat tuples, and the state it expects is the
// canonical form V_P = CanonicalFromFlats(P) (Definition 5). It shares
// no code with update.Maintainer, Tx or the write pipeline.
type flatModel struct {
	order schema.Permutation
	flat  *core.Relation
}

func newFlatModel(def RelationDef) *flatModel {
	order := def.Order
	if order == nil {
		order = SuggestOrder(def.Schema, def.FDs, def.MVDs)
	}
	return &flatModel{order: order, flat: core.NewRelation(def.Schema)}
}

// Insert and Delete report whether R* changed.
func (m *flatModel) Insert(f tuple.Flat) bool { return m.flat.Add(tuple.FromFlat(f)) }
func (m *flatModel) Delete(f tuple.Flat) bool { return m.flat.Remove(tuple.FromFlat(f)) }

func (m *flatModel) InsertMany(fs []tuple.Flat) {
	for _, f := range fs {
		m.Insert(f)
	}
}

// Canonical is V_P of the current R*.
func (m *flatModel) Canonical() *core.Relation {
	rel, _ := m.flat.CanonicalFromFlats(m.order)
	return rel
}

// check fails t unless relation name of db is exactly the model's V_P.
func (m *flatModel) check(t *testing.T, db *Database, name, stage string) {
	t.Helper()
	got, err := db.ReadRelation(context.Background(), name)
	if err != nil {
		t.Fatalf("%s: read %s: %v", stage, name, err)
	}
	if want := m.Canonical(); !got.Equal(want) {
		t.Fatalf("%s: %s is\n%v\nwant V_P of the model's R*\n%v", stage, name, got, want)
	}
}
