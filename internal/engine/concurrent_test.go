package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
)

// These tests are the -race stress suite for concurrent disk-mode
// statements: with stmtMu gone, statements on different relations run
// and commit in parallel (merged group commit), statements on the same
// relation serialize behind its latch, and the result must always
// equal the flat-set model's V_P.

const stressClients = 8

// clientFlats returns a deterministic per-client workload of distinct
// flat tuples.
func clientFlats(client, n int) []tuple.Flat {
	out := make([]tuple.Flat, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, tuple.FlatOfStrings(
			fmt.Sprintf("s%d_%d", client, i%7),
			fmt.Sprintf("c%d_%d", client, i),
			fmt.Sprintf("b%d_%d", client, i%3),
		))
	}
	return out
}

func stressDef(name string) RelationDef {
	sch := schema.MustOf("Student", "Course", "Club")
	return RelationDef{
		Name:   name,
		Schema: sch,
		Order:  schema.MustPermOf(sch, "Course", "Club", "Student"),
	}
}

// TestConcurrentDisjointWriters: one relation per client, all writing
// at once. Each relation must end up exactly equal to the model's V_P,
// both live and across a reopen, and the WAL
// must have spent at most one fsync per changing statement.
func TestConcurrentDisjointWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disjoint.nfrs")
	db, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	flats := make([][]tuple.Flat, stressClients)
	models := make([]*flatModel, stressClients)
	for c := 0; c < stressClients; c++ {
		def := stressDef(fmt.Sprintf("R%d", c))
		if err := db.Create(def); err != nil {
			t.Fatal(err)
		}
		flats[c] = clientFlats(c, 40)
		models[c] = newFlatModel(def)
		models[c].InsertMany(flats[c])
	}
	ws0, _ := db.WALStats()
	var wg sync.WaitGroup
	errs := make(chan error, stressClients)
	for c := 0; c < stressClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("R%d", c)
			for _, f := range flats[c] {
				if _, err := db.Insert(name, f); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				// interleave reads: must always see a committed boundary
				if _, err := db.ReadRelation(context.Background(), name); err != nil {
					errs <- fmt.Errorf("client %d read: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ws1, _ := db.WALStats()
	statements := stressClients * 40
	if got := ws1.Fsyncs - ws0.Fsyncs; got > statements {
		t.Fatalf("group commit broken: %d fsyncs for %d statements", got, statements)
	}
	if ws1.Batches-ws0.Batches != statements {
		t.Fatalf("expected %d batches, got %d", statements, ws1.Batches-ws0.Batches)
	}
	check := func(db *Database, stage string) {
		t.Helper()
		for c, m := range models {
			m.check(t, db, fmt.Sprintf("R%d", c), stage)
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "reopened")
}

// TestConcurrentOverlappingWriters: every client writes the SAME
// relation — statements serialize behind the relation latch, and since
// distinct-tuple inserts commute and the canonical form of a given R*
// is unique, the result must equal the canonical form of the union
// regardless of interleaving. A second phase deletes disjoint slices
// concurrently.
func TestConcurrentOverlappingWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlap.nfrs")
	db, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	def := stressDef("shared")
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	flats := make([][]tuple.Flat, stressClients)
	var all []tuple.Flat
	for c := 0; c < stressClients; c++ {
		flats[c] = clientFlats(c, 25)
		all = append(all, flats[c]...)
	}
	run := func(op func(f tuple.Flat) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, stressClients)
		for c := 0; c < stressClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, f := range flats[c] {
					if err := op(f); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	run(func(f tuple.Flat) error { _, err := db.Insert("shared", f); return err })
	want, _ := core.MustFromFlats(def.Schema, all).Canonical(def.Order)
	got, err := db.ReadRelation(context.Background(), "shared")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("concurrent same-relation inserts diverged from canonical union")
	}
	if db.LatchWaits() == 0 {
		t.Log("note: no latch contention observed despite shared relation")
	}
	// concurrent deletes of each client's own slice drain it back down
	run(func(f tuple.Flat) error {
		ch, err := db.Delete("shared", f)
		if err == nil && !ch {
			return fmt.Errorf("delete of %v changed nothing", f)
		}
		return err
	})
	got2, err := db.ReadRelation(context.Background(), "shared")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 0 {
		t.Fatalf("%d tuples survive full concurrent delete", got2.Len())
	}
}

// TestConcurrentCreateDropAndWriters races steady insert traffic
// against create/insert/drop churn on scratch relations — exercising
// the catalog page and the free list (drops push pages that creates
// recycle) under the transaction-scoped free-list ownership.
func TestConcurrentCreateDropAndWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.nfrs")
	db, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	steady := stressDef("steady")
	if err := db.Create(steady); err != nil {
		t.Fatal(err)
	}
	flats := clientFlats(0, 60)
	model := newFlatModel(steady)
	model.InsertMany(flats)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, f := range flats {
			if _, err := db.Insert("steady", f); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				name := fmt.Sprintf("scratch_%d_%d", w, round)
				def := stressDef(name)
				if err := db.Create(def); err != nil {
					errs <- err
					return
				}
				for _, f := range clientFlats(w+10, 20) {
					if _, err := db.Insert(name, f); err != nil {
						errs <- err
						return
					}
				}
				if err := db.Drop(name); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	model.check(t, db, "steady", "create/drop churn")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if names := db2.Names(); len(names) != 1 || names[0] != "steady" {
		t.Fatalf("scratch relations survived: %v", names)
	}
	model.check(t, db2, "steady", "reopened")
}

// TestDropRacesInFlightStatements: dropping a relation while writers
// hammer it must never corrupt anything — the drop takes the
// relation's statement latch, so an in-flight statement finishes first
// and later statements fail cleanly with "unknown relation" instead of
// writing into freed pages.
func TestDropRacesInFlightStatements(t *testing.T) {
	path := filepath.Join(t.TempDir(), "droprace.nfrs")
	db, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	def := stressDef("victim")
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	keeper := stressDef("keeper")
	if err := db.Create(keeper); err != nil {
		t.Fatal(err)
	}
	flats := clientFlats(0, 200)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, f := range flats {
				if _, err := db.Insert("victim", f); err != nil {
					// after the drop lands, the only acceptable failure
					if !strings.Contains(err.Error(), "unknown relation") {
						errs <- fmt.Errorf("writer %d: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ { // let some statements land first
			if _, err := db.Insert("keeper", flats[i]); err != nil {
				errs <- err
				return
			}
		}
		if err := db.Drop("victim"); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := db.ReadRelation(context.Background(), "victim"); err == nil {
		t.Fatal("dropped relation still readable")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after racing drop failed: %v", err)
	}
	defer db2.Close()
	if names := db2.Names(); len(names) != 1 || names[0] != "keeper" {
		t.Fatalf("relations after racing drop: %v", names)
	}
}
