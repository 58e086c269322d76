package engine_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// TestAtomKindsStayDistinct: Int 1 and String "1" are different atoms
// (value.Compare orders them by kind), so rows that differ only in atom
// kind are two rows, live and after a reopen.
func TestAtomKindsStayDistinct(t *testing.T) {
	rows := []tuple.Flat{
		{value.NewInt(1), value.NewInt(2)},
		{value.NewString("1"), value.NewString("2")},
	}
	check := func(t *testing.T, db *engine.Database, stage string) {
		t.Helper()
		rel, err := db.ReadRelation(context.Background(), "r")
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 2 || rel.ExpansionSize() != 2 {
			t.Fatalf("%s: ReadRelation holds %d tuple(s) over %d flat(s), want 2 over 2:\n%s",
				stage, rel.Len(), rel.ExpansionSize(), rel)
		}
	}
	t.Run("disk", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "kinds.nfrs")
		db, err := engine.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Create(engine.RelationDef{Name: "r", Schema: schema.MustOf("A", "B")}); err != nil {
			t.Fatal(err)
		}
		for _, f := range rows {
			if changed, err := db.Insert("r", f); err != nil || !changed {
				t.Fatalf("Insert%v: changed %v, err %v", f, changed, err)
			}
		}
		check(t, db, "live")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = engine.Open(path); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		check(t, db, "reopened")
	})
}
