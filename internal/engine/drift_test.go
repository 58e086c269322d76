package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/storage/crashfs"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// seedHeap loads R1 through the engine, closes the file, and then
// rewrites the heap through the store API as form(the 1NF relation,
// the nest order). It returns the path, the definition and the rows.
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
	sh := rs.Shard(0)
	var stored []tuple.Tuple
	if err := sh.Scan(func(tp tuple.Tuple) bool { stored = append(stored, tp); return true }); err != nil {
		t.Fatal(err)
	}
	txn := st.Begin()
	for _, tp := range stored {
		if err := sh.Remove(txn, tp); err != nil {
			t.Fatal(err)
		}
	}
	rel := form(core.MustFromFlats(sch, flats), def.Order)
	for i := 0; i < rel.Len(); i++ {
		if err := sh.Insert(txn, rel.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path, def, flats
}

// TestDriftedHeapIsCorrupt: the engine writes a heap only through its
// maintainer, so a stored form that is equivalent to V_P but not V_P
// was written around it, and is ErrCorrupt. Each way such a form can
// pass for one, with and without a snapshot read first:
//   - the 1NF form;
//   - V_Q for the order Q = (Student, Club, Course): irreducible, but
//     not V_P;
//   - V_P with one tuple split in two along Course: composable on
//     p[0] = Course only.
//
// Insert, Delete, Stats, ValidateDeps, Save and Load return ErrCorrupt;
// a snapshot read returns the stored tuples; the data file is not
// written.
func TestDriftedHeapIsCorrupt(t *testing.T) {
	forms := []struct {
		name string
		form func(*core.Relation, schema.Permutation) *core.Relation
	}{
		{"1NF", func(r *core.Relation, _ schema.Permutation) *core.Relation { return r }},
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
	for _, fm := range forms {
		for _, readFirst := range []bool{false, true} {
			path, def, flats := seedHeap(t, fm.form)
			name := fmt.Sprintf("%s, readFirst=%v", fm.name, readFirst)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			stored := fm.form(core.MustFromFlats(def.Schema, flats), def.Order)
			db, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			read := func() {
				t.Helper()
				if got, err := db.ReadRelation(context.Background(), "R1"); err != nil || !got.Equal(stored) {
					t.Fatalf("%s: a snapshot read does not return the stored tuples (%v)", name, err)
				}
			}
			if readFirst {
				read()
			}
			for _, c := range []struct {
				call string
				err  error
			}{
				{"Insert", errOf2(db.Insert("R1", tuple.FlatOfStrings("s999", "c00", "b0")))},
				{"Delete", errOf2(db.Delete("R1", flats[0]))},
				{"Stats", errOf2(db.Stats("R1"))},
				{"ValidateDeps", errOf2(db.ValidateDeps("R1"))},
				{"Save", db.Save(filepath.Join(t.TempDir(), "copy.nfrs"))},
			} {
				if !errors.Is(c.err, ErrCorrupt) {
					t.Errorf("%s: %s on the drifted heap: %v, want ErrCorrupt", name, c.call, c.err)
				}
			}
			read()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: Load of the drifted heap: %v, want ErrCorrupt", name, err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
				t.Fatalf("%s: the data file changed (%v)", name, err)
			}
		}
	}
}

// TestCleanHeapAdopted: a heap that already holds V_P is adopted, not
// rewritten. The first write after Open logs no more pages than the
// same write from the same file once a write that changes nothing has
// made the maintainer resident; rewriting the heap would log every heap
// page.
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

// TestDeadIndexedSlotIsCorrupt: a record tombstoned in the data file
// around the engine leaves its B+tree entry naming no record, so an
// index probe or range scan that follows the entry is ErrCorrupt.
func TestDeadIndexedSlotIsCorrupt(t *testing.T) {
	sch := schema.MustOf("Student", "Course", "Club")
	def := RelationDef{Name: "R1", Schema: sch, Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	path := filepath.Join(t.TempDir(), "db.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	dead := row("s1", "c1", "b1")
	if _, err := db.InsertMany("R1", []tuple.Flat{dead, row("s2", "c2", "b2")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tombstoneRecord(t, path, encoding.EncodeTuple(tuple.FromFlat(dead)))

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LookupFixed("R1", value.NewString("s1")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LookupFixed through a dead slot: %v, want ErrCorrupt", err)
	}
	if _, _, err := db.ScanFixedRange("R1", nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ScanFixedRange through a dead slot: %v, want ErrCorrupt", err)
	}
}

// tombstoneRecord deletes the one heap record whose bytes are rec from
// the closed database file at path, leaving every index untouched.
func tombstoneRecord(t *testing.T, path string, rec []byte) {
	t.Helper()
	pg, err := storage.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	found := 0
	for pid := uint32(1); pid <= pg.NumPages(); pid++ {
		var p storage.Page
		if err := pg.Read(pid, &p); err != nil {
			t.Fatal(err)
		}
		slot := -1
		p.LiveRecords(func(s int, r []byte) bool {
			if bytes.Equal(r, rec) {
				slot = s
			}
			return slot < 0
		})
		if slot < 0 {
			continue
		}
		found++
		if err := p.Delete(slot); err != nil {
			t.Fatal(err)
		}
		if err := pg.Write(pid, &p); err != nil {
			t.Fatal(err)
		}
	}
	if found != 1 {
		t.Fatalf("%d records match, want 1", found)
	}
}
