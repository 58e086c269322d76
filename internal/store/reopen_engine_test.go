package store_test

// The engine-level companion to TestReopenReadsBounded (external test
// package: the engine imports the store, so the bound on engine.Open
// cannot live inside package store). The store-level bound alone is not
// enough — engine.Open used to scan every heap AFTER store.Open
// returned, to materialize each relation's canonical form eagerly. With
// lazy materialization that scan is gone, and this test keeps it gone.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/workload"
)

// engineReopenBudget mirrors reopenBudget in package store: catalog
// chain + free-list chain + two index directories and a B+tree meta
// page per relation, with slack for chained directory pages. Never a
// function of heap size.
func engineReopenBudget(rels int) int { return 4 + 5*rels }

func TestEngineOpenReadsBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine-reopen.nfrs")
	e := workload.GenEnrollment(11, workload.EnrollmentParams{
		Students: 2500, CoursePool: 120, ClubPool: 20, SemesterPool: 8,
		CoursesPerStudent: 4, ClubsPerStudent: 2,
	})
	def := engine.RelationDef{
		Name:   "R1",
		Schema: e.R1.Schema(),
		Order:  schema.MustPermOf(e.R1.Schema(), "Course", "Club", "Student"),
	}
	db, err := engine.Open(path, engine.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	// one transaction for the whole load: per-statement autocommit would
	// pay a group-commit fsync per tuple
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.InsertMany("R1", e.R1.Expand()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := db.ReadRelation(context.Background(), "R1")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// measure the heap size the lazy open must NOT read
	st, err := store.Open(path, store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	heapPages := 0
	rels := len(st.Relations())
	for _, name := range st.Relations() {
		rs, _ := st.Rel(name)
		hs, err := store.HeapStats(rs)
		if err != nil {
			t.Fatal(err)
		}
		heapPages += hs.Pages
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if heapPages < 10 {
		t.Fatalf("heap spans only %d page(s); too small for a reopen bound", heapPages)
	}

	// the measured leg: a clean ENGINE open
	db2, err := engine.Open(path, engine.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	open, ok := db2.OpenIOStats()
	if !ok {
		t.Fatal("no open-phase stats on a disk-backed database")
	}
	if budget := engineReopenBudget(rels); open.Misses > budget {
		t.Errorf("clean engine.Open read %d pages, budget %d (heap is %d pages)",
			open.Misses, budget, heapPages)
	}
	if open.Misses >= heapPages {
		t.Errorf("clean engine.Open read %d pages — a full heap scan (%d pages)",
			open.Misses, heapPages)
	}
	// lazy attach means the engine adds NO page reads of its own on top
	// of store.Open (whose I/O is bucketed in OpenIOStats)
	if all, _ := db2.AllPoolStats(); all.Misses != 0 {
		t.Errorf("engine.Open performed %d post-open page reads; lazy attach should perform none", all.Misses)
	}

	// the first read materializes from the heap — and is correct
	got, err := db2.ReadRelation(context.Background(), "R1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("content changed across lazy reopen")
	}
	afterFirst, _ := db2.AllPoolStats()
	if afterFirst.Misses == 0 {
		t.Fatal("first read touched no heap pages — what did it return?")
	}
	// a second read hits the pool, not the disk
	if _, err := db2.ReadRelation(context.Background(), "R1"); err != nil {
		t.Fatal(err)
	}
	if afterSecond, _ := db2.AllPoolStats(); afterSecond.Misses != afterFirst.Misses {
		t.Errorf("second read missed %d more pages; the heap should be pool-resident",
			afterSecond.Misses-afterFirst.Misses)
	}
}
