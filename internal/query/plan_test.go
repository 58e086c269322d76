package query

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
)

// newDiskSession opens a session over a disk-backed database with one
// indexed relation R1 (fixed on Student) holding students s00..s29.
func newDiskSession(t *testing.T) (*Session, *engine.Database) {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "q.nfrs"), engine.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := NewSessionOn(db)
	mustExec(t, s, `CREATE R1 (Student:string, Course:string, Club:string) ORDER (Course, Club, Student)`)
	var rows []string
	for i := 0; i < 30; i++ {
		rows = append(rows, fmt.Sprintf("(s%02d, c%d, b%d)", i, i%4, i%2))
	}
	mustExec(t, s, "INSERT INTO R1 VALUES "+strings.Join(rows, ", "))
	return s, db
}

func TestExplainAccessPaths(t *testing.T) {
	s, db := newDiskSession(t)

	// the acceptance shape: a two-sided range on the indexed atom
	res := mustExec(t, s, `EXPLAIN SELECT * FROM R1 WHERE Student >= s10 AND Student < s20`)
	if !strings.Contains(res.Message, "access: index-range (Student)") {
		t.Errorf("explain =\n%s", res.Message)
	}
	// tuple-level Any/Any window: upper bound demoted to residual
	if !strings.Contains(res.Message, "note: upper bound demoted") {
		t.Errorf("missing demotion note:\n%s", res.Message)
	}
	// flat-level select keeps the full window
	res = mustExec(t, s, `EXPLAIN SELECT FLAT * FROM R1 WHERE Student >= s10 AND Student < s20`)
	if !strings.Contains(res.Message, `range: ["s10" .. "s20")`) {
		t.Errorf("flat window =\n%s", res.Message)
	}
	if strings.Contains(res.Message, "note:") {
		t.Errorf("unexpected note:\n%s", res.Message)
	}

	// equality and membership pick the point probe
	for _, q := range []string{
		`EXPLAIN SELECT * FROM R1 WHERE Student = s07`,
		`EXPLAIN SELECT * FROM R1 WHERE Student CONTAINS s07 AND Course = c1`,
		`EXPLAIN UPDATE R1 SET Club = b9 WHERE Student = s07`,
	} {
		res = mustExec(t, s, q)
		if !strings.Contains(res.Message, "access: index-point (Student)") {
			t.Errorf("%s =\n%s", q, res.Message)
		}
	}

	// non-indexed attribute, disjunctions, NE: heap scan
	for _, q := range []string{
		`EXPLAIN SELECT * FROM R1 WHERE Course = c1`,
		`EXPLAIN SELECT * FROM R1 WHERE Student = s01 OR Student = s02`,
		`EXPLAIN SELECT * FROM R1 WHERE Student <> s01`,
		`EXPLAIN SELECT * FROM R1`,
	} {
		res = mustExec(t, s, q)
		if !strings.Contains(res.Message, "access: heap-scan") {
			t.Errorf("%s =\n%s", q, res.Message)
		}
	}

	// hash-sharded relations fall back to heap scan: stored tuples are
	// shard-canonical, not globally canonical
	def, err := db.Def("R1")
	if err != nil {
		t.Fatal(err)
	}
	def.Name = "RS"
	def.Shards = 4
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, `EXPLAIN SELECT * FROM RS WHERE Student >= s10`)
	if !strings.Contains(res.Message, "access: heap-scan") ||
		!strings.Contains(res.Message, "hash-sharded 4 ways") {
		t.Errorf("sharded explain =\n%s", res.Message)
	}

	// a heap scan names the conjuncts it tests on each record before
	// decoding it, or why there are none; an index fetch has no filter
	for q, want := range map[string]string{
		`EXPLAIN SELECT * FROM R1 WHERE Course CONTAINS c001`:                                     `filter: Course contains "c001"`,
		`EXPLAIN UPDATE R1 SET Club = b9 WHERE Course = c1 AND CARD(Club) = 1 AND Club ALL <> b0`: `filter: Course = "c1" and Club all <> "b0"`,
		`EXPLAIN SELECT * FROM R1 WHERE Student = s01 OR Student = s02`:                           `filter: none (no attr-vs-constant or contains conjunct)`,
		`EXPLAIN SELECT * FROM R1`:                            `filter: none (no attr-vs-constant or contains conjunct)`,
		`EXPLAIN SELECT * FROM RS WHERE Course CONTAINS c001`: `filter: none (a sharded read re-canonicalizes the union of its shards)`,
	} {
		if res = mustExec(t, s, q); !strings.Contains(res.Message, "\n  "+want+"\n") {
			t.Errorf("%s =\n%s\nwant the line %q", q, res.Message, want)
		}
	}
	if res = mustExec(t, s, `EXPLAIN SELECT * FROM R1 WHERE Student = s07 AND Course = c3`); strings.Contains(res.Message, "filter:") {
		t.Errorf("index-point explain =\n%s", res.Message)
	}

	// explain surfaces attribute errors like execution would
	if _, err := s.Exec(`EXPLAIN SELECT * FROM R1 WHERE Nope = 1`); err == nil {
		t.Error("explain accepted unknown attribute")
	}
}

// TestIndexedSelectEquivalence holds planner-routed SELECTs to the
// algebra applied to the heap-scanned relation (SHOW): index fetch +
// residual ≡ selection over the whole relation.
func TestIndexedSelectEquivalence(t *testing.T) {
	disk, db := newDiskSession(t)
	// a stored -0.0 equals the literal 0.0 under value.Compare, so the
	// point probe has to find it as the heap scan does
	mustExec(t, disk, `CREATE Z (X:float, Y:string) ORDER (Y, X)`)
	mustExec(t, disk, `INSERT INTO Z VALUES (-0.0, y)`)

	queries := []string{
		`SELECT * FROM Z WHERE X = 0.0`,
		`SELECT * FROM R1 WHERE Student >= s10 AND Student < s20`,
		`SELECT FLAT * FROM R1 WHERE Student >= s10 AND Student < s20`,
		`SELECT * FROM R1 WHERE Student = s07`,
		`SELECT * FROM R1 WHERE Student CONTAINS s07 AND Course = c3`,
		`SELECT * FROM R1 WHERE Student > s25`,
		`SELECT FLAT Student FROM R1 WHERE Student <= s03`,
		`SELECT * FROM R1 WHERE Student >= s90`,
		`SELECT * FROM R1 WHERE Student ALL >= s00 AND Student ALL <= s99`,
	}
	for _, q := range queries {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(SelectStmt)
		full := mustExec(t, disk, "SHOW "+sel.Name).Relation
		def, _ := db.Def(sel.Name)
		var want *core.Relation
		if sel.Flat {
			want, err = algebra.SelectFlat(full, sel.Where, def.Order)
			if err == nil && sel.Cols != nil {
				want, err = algebra.ProjectFlat(want, schema.IdentityPerm(len(sel.Cols)), sel.Cols...)
			}
		} else {
			want, err = algebra.Select(full, sel.Where)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExec(t, disk, q); !got.Relation.EquivalentTo(want) {
			t.Errorf("%s:\n%s\nreference:\n%s", q, got, RenderTable(want))
		}
	}

	// A SELECT FLAT * whose predicate reads only Student, the fixed
	// attribute, restricts the fetched tuples; one that also reads Course
	// expands and re-nests. Both must answer, tuple for tuple, what the
	// expand-and-re-nest reference selects from the whole relation.
	full := mustExec(t, disk, `SHOW R1`).Relation
	def, err := db.Def("R1")
	if err != nil {
		t.Fatal(err)
	}
	flatQueries := []struct {
		q        string
		restrict bool
	}{
		{`SELECT FLAT * FROM R1`, true},
		{`SELECT FLAT * FROM R1 WHERE Student >= s10 AND Student < s20`, true},
		{`SELECT FLAT * FROM R1 WHERE Student ALL >= s05 AND Student ALL < s12 OR Student = s27`, true},
		{`SELECT FLAT * FROM R1 WHERE CARD(Student) = 1 AND Student < s05`, true},
		{`SELECT FLAT * FROM R1 WHERE Student >= s10 AND Course = c2`, false},
	}
	for _, c := range flatQueries {
		st, err := Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		pred := st.(SelectStmt).Where
		if pred == nil {
			pred = algebra.True()
		}
		if got := readsOnly(pred, "Student"); got != c.restrict {
			t.Errorf("%s: restricts = %v, want %v", c.q, got, c.restrict)
		}
		want, err := algebra.SelectFlat(full, pred, def.Order)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExec(t, disk, c.q); !got.Relation.Equal(want) {
			t.Errorf("%s:\n%s\nreference:\n%s", c.q, got, RenderTable(want))
		}
	}
}

func TestUpdateStatement(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		s, _ := newDiskSession(t)
		res := mustExec(t, s, `UPDATE R1 SET Club = bz WHERE Student >= s10 AND Student < s20`)
		if !strings.Contains(res.Message, "updated 10 flat tuple(s)") {
			t.Errorf("update message = %q", res.Message)
		}
		chk := mustExec(t, s, `SELECT FLAT * FROM R1 WHERE Club = bz`)
		if chk.Relation.ExpansionSize() != 10 {
			t.Errorf("rewritten flats = %d", chk.Relation.ExpansionSize())
		}
		// the old flats are gone, total count unchanged
		all := mustExec(t, s, `SELECT FLAT * FROM R1`)
		if all.Relation.ExpansionSize() != 30 {
			t.Errorf("total flats = %d, want 30", all.Relation.ExpansionSize())
		}
		// no-op update reports zero
		res = mustExec(t, s, `UPDATE R1 SET Club = bz WHERE Club = bz`)
		if !strings.Contains(res.Message, "updated 0") {
			t.Errorf("no-op update message = %q", res.Message)
		}
		// unknown SET attribute rejected
		if _, err := s.Exec(`UPDATE R1 SET Nope = 1`); err == nil {
			t.Error("update of unknown attribute accepted")
		}
	})
}

func TestSelectOrderBy(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, `SELECT FLAT * FROM R1 ORDER BY Student DESC`)
	rel := res.Relation
	idx := rel.Schema().Index("Student")
	for i := 1; i < rel.Len(); i++ {
		if compareSets(rel.Tuple(i-1).Set(idx), rel.Tuple(i).Set(idx)) < 0 {
			t.Fatalf("not descending at %d:\n%s", i, res)
		}
	}
	res = mustExec(t, s, `SELECT * FROM R1 ORDER BY Club`)
	rel = res.Relation
	idx = rel.Schema().Index("Club")
	for i := 1; i < rel.Len(); i++ {
		if compareSets(rel.Tuple(i-1).Set(idx), rel.Tuple(i).Set(idx)) > 0 {
			t.Fatalf("not ascending at %d:\n%s", i, res)
		}
	}
	if _, err := s.Exec(`SELECT Student FROM R1 ORDER BY Club`); err == nil {
		t.Error("order by attribute outside projection accepted")
	}
}

func TestStatsShowsIndexPages(t *testing.T) {
	s, _ := newDiskSession(t)
	res := mustExec(t, s, "STATS R1")
	if !strings.Contains(res.Message, "index pages: btree inner=") {
		t.Errorf("stats = %q", res.Message)
	}
}
