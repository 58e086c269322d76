package engine

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/tuple"
)

// seedDrifted loads R1 through the engine, closes the file, and then
// rewrites the heap through the store API as the 1NF form of the same
// content: equivalent to what the engine stored, not canonical. It
// returns the path and the rows.
func seedDrifted(t *testing.T) (string, RelationDef, []tuple.Flat) {
	t.Helper()
	sch, flats := enrollmentFlats(5, 25)
	def := RelationDef{Name: "R1", Schema: sch, Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	path := filepath.Join(t.TempDir(), "db.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMany("R1", flats); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := st.Rel("R1")
	if !ok {
		t.Fatal("the store does not know R1")
	}
	txn := st.Begin()
	if err := rs.Shard(0).Replace(txn, core.MustFromFlats(sch, flats)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path, def, flats
}

// TestDriftedHeapRepairedByFirstWrite: a heap whose stored form is not
// the canonical one is repaired by the write that materializes it —
// also when a read-only statement (STATS, VALIDATE, Rel.Relation)
// materialized first. That read sees the canonical form but must not
// publish its maintainer: the write behind it would skip the repair and
// write through to a heap that does not hold the tuples it removes.
func TestDriftedHeapRepairedByFirstWrite(t *testing.T) {
	for _, readFirst := range []bool{false, true} {
		path, def, flats := seedDrifted(t)
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if stored, err := db.ReadRelation(context.Background(), "R1"); err != nil || stored.Len() != len(flats) {
			t.Fatalf("readFirst=%v: the seeded heap is not the 1NF form: %d tuples, %v", readFirst, stored.Len(), err)
		}
		want, _ := core.MustFromFlats(def.Schema, flats).Canonical(def.Order)
		if readFirst {
			st, err := db.Stats("R1")
			if err != nil || st.NFRTuples != want.Len() || st.FlatTuples != len(flats) {
				t.Fatalf("STATS over the drifted heap = %+v, %v; the canonical form has %d tuples", st, err, want.Len())
			}
			if _, err := db.ValidateDeps("R1"); err != nil {
				t.Fatal(err)
			}
			r, _ := db.Rel("R1")
			if rel := r.Relation(); rel == nil || !rel.Equal(want) {
				t.Fatal("Rel.Relation over the drifted heap is not the canonical form")
			}
		}
		// a delete that decomposes a stored tuple, then an insert
		for i, write := range []func(string, tuple.Flat) (bool, error){db.Delete, db.Insert} {
			f := flats[0]
			if i == 1 {
				f = tuple.FlatOfStrings("s999", "c00", "b0")
			}
			if changed, err := write("R1", f); err != nil || !changed {
				t.Fatalf("readFirst=%v: write %d: changed=%v, %v", readFirst, i, changed, err)
			}
		}
		want, _ = core.MustFromFlats(def.Schema, append(flats[1:len(flats):len(flats)], tuple.FlatOfStrings("s999", "c00", "b0"))).Canonical(def.Order)
		check := func(stage string) {
			t.Helper()
			got, err := db.ReadRelation(context.Background(), "R1")
			if err != nil {
				t.Fatalf("readFirst=%v, %s: %v", readFirst, stage, err)
			}
			if !got.Equal(want) {
				t.Fatalf("readFirst=%v, %s: the heap holds %d tuples over %d rows, the canonical form %d over %d",
					readFirst, stage, got.Len(), got.ExpansionSize(), want.Len(), want.ExpansionSize())
			}
			if err := db.VerifyIndexes(); err != nil {
				t.Fatalf("readFirst=%v, %s: %v", readFirst, stage, err)
			}
		}
		check("after the writes")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(path); err != nil {
			t.Fatal(err)
		}
		check("after reopen")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
