package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// enrollmentFlats deterministically generates the Section-2 workload as
// flat tuples.
func enrollmentFlats(seed int64, students int) (*schema.Schema, []tuple.Flat) {
	e := workload.GenEnrollment(seed, workload.EnrollmentParams{
		Students: students, CoursePool: 20, ClubPool: 6, SemesterPool: 4,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	return e.R1.Schema(), e.R1.Expand()
}

// TestDiskEngineEquivalence drives a workload through the engine and
// holds every change flag and the stored realization (read back through
// the buffer pool) to the flat-set model, including across a
// close/reopen.
func TestDiskEngineEquivalence(t *testing.T) {
	sch, flats := enrollmentFlats(11, 30)
	def := RelationDef{
		Name:   "R1",
		Schema: sch,
		Order:  schema.MustPermOf(sch, "Course", "Club", "Student"),
	}

	model := newFlatModel(def)
	path := filepath.Join(t.TempDir(), "db.nfrs")
	disk, err := Open(path, WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Create(def); err != nil {
		t.Fatal(err)
	}

	for i, f := range flats {
		ch, err := disk.Insert("R1", f)
		if err != nil {
			t.Fatal(err)
		}
		if ch != model.Insert(f) {
			t.Fatalf("insert change mismatch for %v", f)
		}
		if i%25 == 0 {
			model.check(t, disk, "R1", "insert")
		}
	}
	// delete a third of the flats again
	for i, f := range flats {
		if i%3 != 0 {
			continue
		}
		cd, err := disk.Delete("R1", f)
		if err != nil {
			t.Fatal(err)
		}
		if cd != model.Delete(f) {
			t.Fatalf("delete change mismatch for %v", f)
		}
	}
	model.check(t, disk, "R1", "after deletes")

	if hits, misses, _, ok := disk.PoolStats(); !ok || hits+misses == 0 {
		t.Errorf("PoolStats = %d/%d/%v, want activity", hits, misses, ok)
	}

	// reopen from disk: the stored relation and the resident one it
	// materializes are both the model's V_P
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	disk2, err := Open(path, WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	model.check(t, disk2, "R1", "reopened")
	r2, _ := disk2.Rel("R1")
	if !r2.Relation().Equal(model.Canonical()) {
		t.Fatal("reopened resident relation diverged from the model")
	}
	// and keeps accepting write-through updates
	f := tuple.FlatOfStrings("s_new", "c_new", "b_new")
	if ch, err := disk2.Insert("R1", f); err != nil || ch != model.Insert(f) {
		t.Fatalf("insert after reopen: changed %v, err %v", ch, err)
	}
	model.check(t, disk2, "R1", "write after reopen")
}

// TestOversizedTupleRollsBack: a record that can never fit a page must
// reject that one update — rolled back in memory, heap resynced — and
// leave the relation fully usable, not poisoned.
func TestOversizedTupleRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	def := RelationDef{Name: "r", Schema: schema.MustOf("A", "B")}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r", tuple.FlatOfStrings("a1", "b1")); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 5000)
	for i := range huge {
		huge[i] = 'x'
	}
	if _, err := db.Insert("r", tuple.FlatOfStrings(string(huge), "b2")); err == nil {
		t.Fatal("oversized tuple accepted")
	}
	// the failed update is rolled back everywhere: memory, disk, reopen
	rel, err := db.ReadRelation(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("relation has %d tuples after rolled-back insert", rel.Len())
	}
	// and the relation is not poisoned: further updates work
	if ch, err := db.Insert("r", tuple.FlatOfStrings("a2", "b2")); err != nil || !ch {
		t.Fatalf("insert after rollback: %v %v", ch, err)
	}
	if ch, err := db.Delete("r", tuple.FlatOfStrings("a1", "b1")); err != nil || !ch {
		t.Fatalf("delete after rollback: %v %v", ch, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, err := db2.ReadRelation(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != 1 || rel2.ExpansionSize() != 1 {
		t.Fatalf("reopened relation wrong: %d tuples / %d flats", rel2.Len(), rel2.ExpansionSize())
	}
}

// TestSaveOpenQueryEquivalence saves an in-memory database and reopens
// the snapshot disk-backed: both engines must answer identically.
func TestSaveOpenQueryEquivalence(t *testing.T) {
	sch, flats := enrollmentFlats(7, 25)
	def := RelationDef{Name: "R1", Schema: sch,
		Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	mem := New()
	if err := mem.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.InsertMany("R1", flats); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.nfrs")
	if err := mem.Save(path); err != nil {
		t.Fatal(err)
	}
	disk, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	memRel, _ := mem.ReadRelation(context.Background(), "R1")
	diskRel, err := disk.ReadRelation(context.Background(), "R1")
	if err != nil {
		t.Fatal(err)
	}
	if !memRel.Equal(diskRel) {
		t.Fatal("Save→Open changed relation content")
	}
	if !memRel.EquivalentTo(diskRel) {
		t.Fatal("Save→Open changed the denoted 1NF relation")
	}
	// definitions survive: order + MVD/FD lists
	r, err := disk.Rel("R1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Def().Order.String() != def.Order.String() {
		t.Fatalf("order changed: %v != %v", r.Def().Order, def.Order)
	}
	// disk-backed drop removes the relation durably
	if err := disk.Drop("R1"); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	disk2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	if len(disk2.Names()) != 0 {
		t.Fatalf("dropped relation resurrected: %v", disk2.Names())
	}
}

// TestConcurrentScanAndWrite races disk-mode queries against
// write-through updates on the same relation; run under -race this
// catches unsynchronized page access.
func TestConcurrentScanAndWrite(t *testing.T) {
	sch, flats := enrollmentFlats(29, 25)
	def := RelationDef{Name: "r", Schema: sch,
		Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	db, err := Open(filepath.Join(t.TempDir(), "rw.nfrs"), WithPoolPages(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, f := range flats {
			if _, err := db.Insert("r", f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if _, err := db.ReadRelation(context.Background(), "r"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSaveToOwnAlias: saving a live disk-backed database to an alias
// of its own file must flush, not rename a snapshot over the open
// pager (which would orphan all further writes).
func TestSaveToOwnAlias(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(RelationDef{Name: "r", Schema: schema.MustOf("A")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r", tuple.FlatOfStrings("a1")); err != nil {
		t.Fatal(err)
	}
	// alias: same file through a different name (symlink), so the
	// string compare cannot match and inode comparison must
	alias := filepath.Join(dir, "alias.nfrs")
	if err := os.Symlink(path, alias); err != nil {
		t.Skipf("symlink unavailable: %v", err)
	}
	if err := db.Save(alias); err != nil {
		t.Fatal(err)
	}
	// writes after the save must survive close+reopen
	if _, err := db.Insert("r", tuple.FlatOfStrings("a2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel, err := db2.ReadRelation(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	// degree-1 tuples compose, so a1+a2 is one NFR tuple with R* size 2
	if rel.ExpansionSize() != 2 {
		t.Fatalf("post-save write lost: %d flat tuples, want 2", rel.ExpansionSize())
	}
}

// TestSaveInMemoryToAnyPath: an in-memory database has no file, so Save
// never mistakes a path for its own — not even a relative path named
// like the files of its in-memory file system. Each save must write a
// file that opens back to the saved relation.
func TestSaveInMemoryToAnyPath(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	db := New()
	defer db.Close()
	def := RelationDef{Name: "r", Schema: schema.MustOf("A", "B")}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r", tuple.FlatOfStrings("a1", "b1")); err != nil {
		t.Fatal(err)
	}
	want, _ := db.ReadRelation(context.Background(), "r")
	for _, name := range []string{"mem", "mem.wal", "mem.tmp"} {
		if err := db.Save(name); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("save %s wrote no file: %v", name, err)
		}
		saved, err := Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		got, err := saved.ReadRelation(context.Background(), "r")
		saved.Close()
		if err != nil || !got.Equal(want) {
			t.Fatalf("%s holds %v (err %v), want %v", name, got, err, want)
		}
	}
}

// TestSaveOverCrashedDatabase: saving a snapshot over a path that
// holds a crashed database (data file + WAL sidecar with committed
// batches) must not let the stale log survive the rename — a
// regression here replayed the old database's page images into the
// fresh snapshot on the next Open.
func TestSaveOverCrashedDatabase(t *testing.T) {
	dir := t.TempDir()
	// build a crashed database pair at target: copy the live file pair
	// of an open (never-Closed) database, whose WAL holds its batches
	scratch := filepath.Join(dir, "scratch.nfrs")
	old, err := Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Create(RelationDef{Name: "old_rel", Schema: schema.MustOf("A")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := old.Insert("old_rel", tuple.FlatOfStrings(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	target := filepath.Join(dir, "target.nfrs")
	for _, sfx := range []string{"", ".wal"} {
		b, err := os.ReadFile(scratch + sfx)
		if err != nil {
			t.Fatalf("copying crashed pair: %v", err)
		}
		if err := os.WriteFile(target+sfx, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old.Close()

	// save a fresh snapshot over the crashed pair
	mem := New()
	if err := mem.Create(RelationDef{Name: "fresh", Schema: schema.MustOf("X", "Y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Insert("fresh", tuple.FlatOfStrings("x1", "y1")); err != nil {
		t.Fatal(err)
	}
	if err := mem.Save(target); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(target + ".wal"); !os.IsNotExist(err) {
		t.Fatal("stale WAL sidecar survived Save")
	}
	db, err := Open(target)
	if err != nil {
		t.Fatalf("snapshot corrupted by stale WAL: %v", err)
	}
	defer db.Close()
	if names := db.Names(); len(names) != 1 || names[0] != "fresh" {
		t.Fatalf("snapshot content wrong after Save over crashed db: %v", names)
	}
	rel, err := db.ReadRelation(context.Background(), "fresh")
	if err != nil || rel.ExpansionSize() != 1 {
		t.Fatalf("snapshot data wrong: %v (err %v)", rel, err)
	}
}

// TestLoadEmptyFile: loading a zero-length file must error, not
// initialize it into an empty database.
func TestLoadEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.nfrs")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("load of empty file accepted")
	}
	// and the file is untouched
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("load wrote to the file: %v, err %v", fi, err)
	}
}

// TestDiskCanonicalInvariant mirrors TestEngineCanonicalInvariant on a
// disk-backed engine: the stored realization must track the canonical
// form through a mixed random workload.
func TestDiskCanonicalInvariant(t *testing.T) {
	sch, flats := enrollmentFlats(23, 20)
	def := RelationDef{Name: "r", Schema: sch,
		Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	path := filepath.Join(t.TempDir(), "inv.nfrs")
	db, err := Open(path, WithPoolPages(4)) // tiny pool to force evictions
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	live := map[string]tuple.Flat{}
	for i, f := range flats {
		if i%4 == 3 && len(live) > 0 {
			var victim tuple.Flat
			for _, v := range live {
				victim = v
				break
			}
			if _, err := db.Delete("r", victim); err != nil {
				t.Fatal(err)
			}
			delete(live, victim.Key())
			continue
		}
		if _, err := db.Insert("r", f); err != nil {
			t.Fatal(err)
		}
		live[f.Key()] = f
	}
	var liveFlats []tuple.Flat
	for _, f := range live {
		liveFlats = append(liveFlats, f)
	}
	flat := core.MustFromFlats(def.Schema, liveFlats)
	want, _ := flat.Canonical(def.Order)
	got, err := db.ReadRelation(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("disk realization diverged from canonical rebuild")
	}
	if _, _, ev, _ := db.PoolStats(); ev == 0 {
		t.Log("note: no evictions despite tiny pool (workload fits)")
	}
}
