package engine

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// BenchmarkMaterialize is the cold path of nfr-spine's reopen_recover
// workload on an in-memory filesystem: engine.Open of a cleanly closed
// file holding that workload's population (250 students, about 2 800
// flat tuples) and the first write, which materialises the canonical
// form from the heap. Restoring the file and Close are not timed.
func BenchmarkMaterialize(b *testing.B) {
	sch := schema.MustOf("Student", "Course", "Club")
	def := RelationDef{Name: "R1", Schema: sch, Order: schema.MustPermOf(sch, "Course", "Club", "Student")}
	flats := workload.GenEnrollment(1, workload.EnrollmentParams{
		Students: 250, CoursePool: 150, ClubPool: 20, SemesterPool: 1, CoursesPerStudent: 4, ClubsPerStudent: 2,
	}).R1.Expand()
	fsys := newTxFS()
	open := func() *Database {
		db, err := Open("db", WithFileSystem(fsys.open, fsys.remove), WithPoolPages(64))
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	db := open()
	if err := db.Create(def); err != nil {
		b.Fatal(err)
	}
	if _, err := db.InsertMany("R1", flats); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	closed := fsys.snapshot()
	first := tuple.FlatOfStrings("s9999", "c00", "b00")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fsys.files = make(map[string][]byte, len(closed))
		for name, body := range closed {
			fsys.files[name] = append([]byte(nil), body...)
		}
		b.StartTimer()
		db := open()
		if changed, err := db.Insert("R1", first); err != nil || !changed {
			b.Fatalf("first write: changed=%v, %v", changed, err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
