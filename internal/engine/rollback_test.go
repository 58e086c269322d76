package engine

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestTxRollbackRestoresCanonicalForm: a Tx interleaves inserts and
// deletes that compose and decompose NFR tuples on every shard, with
// one statement rejected in the middle, and rolls back. The resident
// canonical form must be the pre-Begin form, which is V_P of the
// model's R*, and the indexes must still describe the heap; one more
// write and a reopen must agree with the model too.
func TestTxRollbackRestoresCanonicalForm(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			def := txTestDef("r")
			def.Shards = shards
			path := filepath.Join(t.TempDir(), "rb.nfrs")
			db, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			if err := db.Create(def); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			pick := func() tuple.Flat {
				return row(fmt.Sprintf("s%d", rng.Intn(6)), fmt.Sprintf("c%d", rng.Intn(4)), fmt.Sprintf("b%d", rng.Intn(2)))
			}
			model := newFlatModel(def)
			for i := 0; i < 30; i++ {
				f := pick()
				if _, err := db.Insert("r", f); err != nil {
					t.Fatal(err)
				}
				model.Insert(f)
			}
			r, _ := db.Rel("r")
			for _, sh := range r.shards {
				if sh.maint.Load() == nil {
					t.Fatalf("shard %d is not resident before Begin: the rollback would not undo its writes", sh.ord)
				}
			}
			before := r.Relation().Clone()
			if !before.Equal(model.Canonical()) {
				t.Fatal("the seeded relation is not the model's V_P")
			}
			ops0 := r.Stats()

			tx, err := db.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				if i == 30 {
					_, err := tx.Insert("r", row(strings.Repeat("x", 5000), "c0", "b0"))
					if err == nil || !strings.Contains(err.Error(), "can never fit a page") {
						t.Fatalf("oversized statement: %v", err)
					}
				}
				write := tx.Insert
				if rng.Intn(2) == 0 {
					write = tx.Delete
				}
				if _, err := write("r", pick()); err != nil {
					t.Fatalf("statement %d: %v", i, err)
				}
			}
			ops := r.Stats()
			if ops.Compositions == ops0.Compositions || ops.Decompositions == ops0.Decompositions {
				t.Fatalf("the Tx did not both compose and decompose: %+v before, %+v after", ops0, ops)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := r.Stats(); got != ops {
				t.Fatalf("STATS after rollback is %+v, want %+v: the undo replay counted as work", got, ops)
			}
			if got := r.Relation(); !got.Equal(before) {
				t.Fatalf("resident form after rollback is\n%v\nwant the pre-Begin form\n%v", got, before)
			}
			if err := db.VerifyIndexes(); err != nil {
				t.Fatalf("after rollback: %v", err)
			}
			model.check(t, db, "r", "after rollback")

			f := row("s9", "c0", "b0")
			if ch, err := db.Insert("r", f); err != nil || !ch {
				t.Fatalf("write after rollback: changed=%v, %v", ch, err)
			}
			model.Insert(f)
			if !r.Relation().Equal(model.Canonical()) {
				t.Fatalf("resident form after one more write is\n%v", r.Relation())
			}
			model.check(t, db, "r", "after one more write")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(path); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyIndexes(); err != nil {
				t.Fatalf("after reopen: %v", err)
			}
			model.check(t, db, "r", "after reopen")
		})
	}
}

// BenchmarkTxRollback prices undoing a one-row transaction against
// committing it as the relation grows: enrollment R1 on an in-memory
// file with a 4 096-page pool. The rollback leg is Tx{Insert; Rollback};
// the commit leg is Tx{Insert; Commit} plus the autocommit Delete that
// takes the row out again, so both legs end where they began.
func BenchmarkTxRollback(b *testing.B) {
	sch := schema.MustOf("Student", "Course", "Club")
	def := RelationDef{Name: "R1", Schema: sch, Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	f := tuple.FlatOfStrings("s99999", "c00", "b00")
	for _, students := range []int{250, 1000, 4000} {
		fsys := storage.NewMemFS()
		db, err := Open("db", WithFileSystem(fsys.Open, fsys.Remove), WithPoolPages(4096))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Create(def); err != nil {
			b.Fatal(err)
		}
		flats := workload.GenEnrollment(1, workload.EnrollmentParams{
			Students: students, CoursePool: 150, ClubPool: 20, SemesterPool: 1, CoursesPerStudent: 4, ClubsPerStudent: 2,
		}).R1.Expand()
		tx, _ := db.Begin(nil)
		if _, err := tx.InsertMany("R1", flats); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		insert := func(b *testing.B) *Tx {
			tx, err := db.Begin(nil)
			if err != nil {
				b.Fatal(err)
			}
			if ch, err := tx.Insert("R1", f); err != nil || !ch {
				b.Fatalf("insert: changed=%v, %v", ch, err)
			}
			return tx
		}
		b.Run(fmt.Sprintf("students=%d/commit", students), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := insert(b).Commit(); err != nil {
					b.Fatal(err)
				}
				if ch, err := db.Delete("R1", f); err != nil || !ch {
					b.Fatalf("delete: changed=%v, %v", ch, err)
				}
			}
		})
		b.Run(fmt.Sprintf("students=%d/rollback", students), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := insert(b).Rollback(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
