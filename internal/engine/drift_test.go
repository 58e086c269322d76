package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/storage/crashfs"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/vset"
)

// seedDrifted loads R1 through the engine, closes the file, and then
// rewrites the heap through the store API as the 1NF form of the same
// content: equivalent to what the engine stored, not canonical. It
// returns the path and the rows.
func seedDrifted(t *testing.T) (string, RelationDef, []tuple.Flat) {
	t.Helper()
	return seedHeap(t, func(r *core.Relation, _ schema.Permutation) *core.Relation { return r })
}

// seedHeap is seedDrifted with the stored form chosen by form, which
// gets the 1NF relation and the nest order.
func seedHeap(t *testing.T, form func(*core.Relation, schema.Permutation) *core.Relation) (string, RelationDef, []tuple.Flat) {
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
	if err := rs.Shard(0).Replace(txn, form(core.MustFromFlats(sch, flats), def.Order)); err != nil {
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

// TestDriftedFormsRepairedByFirstWrite: each way a stored form can be
// equivalent to the canonical one and still fail the check is repaired
// by the first write, with and without a read-only statement first:
//   - V_Q for the order Q = (Student, Club, Course): irreducible, but
//     not V_P;
//   - V_P with one tuple split in two along Course: composable on
//     p[0] = Course only.
func TestDriftedFormsRepairedByFirstWrite(t *testing.T) {
	forms := []struct {
		name string
		form func(*core.Relation, schema.Permutation) *core.Relation
	}{
		{"V_Q", func(r *core.Relation, _ schema.Permutation) *core.Relation {
			vq, _ := r.Canonical(schema.MustPermOf(r.Schema(), "Student", "Club", "Course"))
			return vq
		}},
		{"split", func(r *core.Relation, p schema.Permutation) *core.Relation {
			vp, _ := r.Canonical(p)
			ts := vp.Tuples()
			for i, tp := range ts {
				if courses := tp.Set(p[0]).Atoms(); len(courses) > 1 {
					ts[i] = tp.WithSet(p[0], vset.Single(courses[0]))
					return core.MustFromTuples(r.Schema(), append(ts, tp.WithSet(p[0], vset.New(courses[1:]...))))
				}
			}
			t.Fatal("no stored tuple holds two courses")
			return nil
		}},
	}
	extra := tuple.FlatOfStrings("s999", "c00", "b0")
	for _, fm := range forms {
		for _, readFirst := range []bool{false, true} {
			path, def, flats := seedHeap(t, fm.form)
			name := fmt.Sprintf("%s, readFirst=%v", fm.name, readFirst)
			vp, _ := core.MustFromFlats(def.Schema, flats).Canonical(def.Order)
			db, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := db.ReadRelation(context.Background(), "R1")
			if err != nil || stored.Equal(vp) || !stored.EquivalentTo(vp) {
				t.Fatalf("%s: the seeded heap is V_P or not equivalent to it (%v)", name, err)
			}
			if fm.name == "V_Q" && !stored.IsIrreducible() {
				t.Fatalf("%s: the seeded heap is reducible", name)
			}
			if readFirst {
				if st, err := db.Stats("R1"); err != nil || st.NFRTuples != vp.Len() {
					t.Fatalf("%s: STATS = %+v, %v; V_P has %d tuples", name, st, err, vp.Len())
				}
			}
			if changed, err := db.Delete("R1", flats[0]); err != nil || !changed {
				t.Fatalf("%s: delete: changed=%v, %v", name, changed, err)
			}
			if changed, err := db.Insert("R1", extra); err != nil || !changed {
				t.Fatalf("%s: insert: changed=%v, %v", name, changed, err)
			}
			want, _ := core.MustFromFlats(def.Schema, append(flats[1:len(flats):len(flats)], extra)).Canonical(def.Order)
			for _, stage := range []string{"after the writes", "after reopen"} {
				if stage == "after reopen" {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(path); err != nil {
						t.Fatal(err)
					}
				}
				got, err := db.ReadRelation(context.Background(), "R1")
				if err != nil || !got.Equal(want) {
					t.Fatalf("%s, %s: the heap is not the canonical form (%v)", name, stage, err)
				}
				if err := db.VerifyIndexes(); err != nil {
					t.Fatalf("%s, %s: %v", name, stage, err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCleanHeapAdopted: a heap that already holds V_P is adopted, not
// rewritten. The first write after Open logs no more pages than the
// same write from the same file once a write that changes nothing has
// made the maintainer resident; a Replace would log every heap page.
func TestCleanHeapAdopted(t *testing.T) {
	sch, flats := enrollmentFlats(5, 400)
	def := RelationDef{Name: "R1", Schema: sch, Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	fsys := crashfs.New(nil)
	open := func() *Database {
		db, err := Open("db", WithFileSystem(fsys.Open, fsys.Remove))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMany("R1", flats); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	closed := fsys    // as Close left it: each run opens a copy
	var logged [2]int // pages the write logs: cold, then resident
	for i, resident := range []bool{false, true} {
		fsys = crashfs.New(closed.Snapshot())
		db := open()
		if resident {
			if changed, err := db.Insert("R1", flats[0]); err != nil || changed {
				t.Fatalf("re-inserting a stored row: changed=%v, %v", changed, err)
			}
		}
		ws0, _ := db.WALStats()
		if changed, err := db.Insert("R1", tuple.FlatOfStrings("s999", "c00", "b0")); err != nil || !changed {
			t.Fatalf("resident=%v: changed=%v, %v", resident, changed, err)
		}
		ws1, _ := db.WALStats()
		logged[i] = ws1.PagesLogged - ws0.PagesLogged
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if logged[0] == 0 || logged[0] > logged[1] {
		t.Fatalf("the first write after Open logged %d pages, the same write with the maintainer resident %d", logged[0], logged[1])
	}
}

// TestDriftRepairFailureFailsBatch: a drift repair that stops
// part-way fails the pipeline batch whose write ran it. The heap holds
// the 1NF form of rows whose canonical form is one tuple too large for
// a page, so the repair clears the heap and then cannot write that
// tuple. The write must return the error and the batch must roll back:
// every seeded row is still stored, live and after a reopen.
func TestDriftRepairFailureFailsBatch(t *testing.T) {
	sch := schema.MustOf("A", "B")
	def := RelationDef{Name: "r", Schema: sch}
	var flats []tuple.Flat
	for i := 0; i < 100; i++ {
		flats = append(flats, tuple.FlatOfStrings("a1", fmt.Sprintf("b%03d-%060d", i, i)))
	}
	path := filepath.Join(t.TempDir(), "db.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := st.Rel("r")
	seeded := core.MustFromFlats(sch, flats)
	txn := st.Begin()
	if err := rs.Shard(0).Replace(txn, seeded); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path); err != nil {
		t.Fatal(err)
	}
	_, err = db.Insert("r", tuple.FlatOfStrings("a2", "b"))
	if err == nil || !strings.Contains(err.Error(), "can never fit a page") {
		t.Fatalf("a write whose drift repair cannot store the canonical form returned %v", err)
	}
	for _, stage := range []string{"live", "after reopen"} {
		if stage == "after reopen" {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(path); err != nil {
				t.Fatal(err)
			}
		}
		got, err := db.ReadRelation(context.Background(), "r")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !got.Equal(seeded) {
			t.Fatalf("%s: the heap holds %d tuples over %d rows, the seeded heap %d over %d",
				stage, got.Len(), got.ExpansionSize(), seeded.Len(), seeded.ExpansionSize())
		}
		if err := db.VerifyIndexes(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDriftRepairRolledBack: a Tx whose first write materialized a
// drifted heap, and so repaired it, takes the repair with it when it
// rolls back. The heap is drifted again, so the next write must repair
// it again rather than write Section 4's changes to a non-canonical
// form: the stored form is V_P of the rows, live and after a reopen.
func TestDriftRepairRolledBack(t *testing.T) {
	path, def, flats := seedDrifted(t)
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if changed, err := tx.Insert("R1", tuple.FlatOfStrings("s998", "c00", "b0")); err != nil || !changed {
		t.Fatalf("insert in the Tx: changed=%v, %v", changed, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	extra := tuple.FlatOfStrings("s999", "c00", "b0")
	if changed, err := db.Insert("R1", extra); err != nil || !changed {
		t.Fatalf("insert after the rollback: changed=%v, %v", changed, err)
	}
	want, _ := core.MustFromFlats(def.Schema, append(flats[:len(flats):len(flats)], extra)).Canonical(def.Order)
	for _, stage := range []string{"live", "after reopen"} {
		if stage == "after reopen" {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(path); err != nil {
				t.Fatal(err)
			}
		}
		got, err := db.ReadRelation(context.Background(), "R1")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: heap %d tuples over %d rows, canonical %d over %d",
				stage, got.Len(), got.ExpansionSize(), want.Len(), want.ExpansionSize())
		}
		if err := db.VerifyIndexes(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
