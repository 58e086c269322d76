package query

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/tuple"
)

// sparseStudents is nfr-spine's sparse enrollment population: student
// i takes 1 + i%4 of 600 courses and 1 + (i/4)%2 of 80 clubs, so almost
// no two students share a tuple.
func sparseStudents(n int) []tuple.Flat {
	rng := rand.New(rand.NewSource(1))
	var out []tuple.Flat
	for i := 0; i < n; i++ {
		courses, clubs := rng.Perm(600)[:1+i%4], rng.Perm(80)[:1+(i/4)%2]
		for _, c := range courses {
			for _, b := range clubs {
				out = append(out, tuple.FlatOfStrings(fmt.Sprintf("s%05d", i), fmt.Sprintf("c%03d", c), fmt.Sprintf("b%02d", b)))
			}
		}
	}
	return out
}

// BenchmarkSessionScript times one script on a fresh in-memory session
// (NewSession): CREATE, 400 INSERTs, 100 point SELECTs, then BEGIN, 50
// DELETEs and ROLLBACK — what nfr-repl without -d costs.
func BenchmarkSessionScript(b *testing.B) {
	row := func(i int) string { return fmt.Sprintf("(s%03d, c%d, b%d)", i%100, i%7, i%3) }
	script := []string{`CREATE R1 (Student, Course, Club) ORDER (Course, Club, Student)`}
	for i := 0; i < 400; i++ {
		script = append(script, "INSERT INTO R1 VALUES "+row(i))
	}
	for i := 0; i < 100; i++ {
		script = append(script, fmt.Sprintf("SELECT * FROM R1 WHERE Student = s%03d", i))
	}
	script = append(script, "BEGIN")
	for i := 0; i < 50; i++ {
		script = append(script, "DELETE FROM R1 VALUES "+row(i))
	}
	script = append(script, "ROLLBACK")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession()
		for _, stmt := range script {
			if _, err := s.Exec(stmt); err != nil {
				b.Fatalf("%s: %v", stmt, err)
			}
		}
		s.DB.Close()
	}
}

// BenchmarkSelect times the three read statements of nfr-spine's
// embed_read through a session on a disk database of 2 000 sparse
// students with a pool a fraction of the relation: a point SELECT (a
// B+tree probe), a 20-student SELECT FLAT window (a B+tree range scan,
// then the fixed-attribute restriction) and a SELECT on Course (a heap
// scan).
func BenchmarkSelect(b *testing.B) {
	const students = 2000
	db, err := engine.Open(filepath.Join(b.TempDir(), "select.nfrs"), engine.WithPoolPages(32))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	sch := schema.MustOf("Student", "Course", "Club")
	if err := db.Create(engine.RelationDef{Name: "R1", Schema: sch, Order: schema.MustPermOf(sch, "Course", "Club", "Student")}); err != nil {
		b.Fatal(err)
	}
	flats := sparseStudents(students)
	for len(flats) > 0 {
		n := min(len(flats), 256)
		tx, err := db.Begin(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.InsertMany("R1", flats[:n]); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		flats = flats[n:]
	}
	sess := NewSessionOn(db)
	rng := rand.New(rand.NewSource(2))
	stmts := func(format func(i int) string) []string {
		out := make([]string, 64)
		for i := range out {
			out[i] = format(rng.Intn(students - 20))
		}
		return out
	}
	for _, c := range []struct {
		name  string
		stmts []string
	}{
		{"point", stmts(func(i int) string { return fmt.Sprintf("SELECT * FROM R1 WHERE Student = s%05d", i) })},
		{"range_flat", stmts(func(i int) string {
			return fmt.Sprintf("SELECT FLAT * FROM R1 WHERE Student >= s%05d AND Student < s%05d", i, i+20)
		})},
		{"heap_scan", stmts(func(i int) string { return fmt.Sprintf("SELECT * FROM R1 WHERE Course CONTAINS c%03d", i%600) })},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sess.Exec(c.stmts[i%len(c.stmts)])
				if err != nil {
					b.Fatal(err)
				}
				if res.Relation.Len() == 0 && c.name != "heap_scan" {
					b.Fatalf("%s: empty answer", c.stmts[i%len(c.stmts)])
				}
			}
		})
	}
}
