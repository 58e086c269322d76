package query

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestSessionTransaction drives BEGIN/COMMIT/ROLLBACK through the
// query language: statements inside a transaction are visible to the
// session (and only to it) until COMMIT, and ROLLBACK discards them.
func TestSessionTransaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sess.nfrs")
	db, err := engine.Open(path, engine.WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewSessionOn(db)
	mustExec := func(stmt string) Result {
		t.Helper()
		res, err := s.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	mustExec("CREATE r (A, B) MVD A ->-> B")

	// committed transaction
	mustExec("BEGIN")
	if !s.InTx() {
		t.Fatal("InTx() = false after BEGIN")
	}
	if _, err := s.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN accepted")
	}
	mustExec("INSERT INTO r VALUES (a1, b1), (a1, b2)")
	// the session sees its own writes
	if res := mustExec("SHOW r"); res.Relation.ExpansionSize() != 2 {
		t.Fatalf("in-tx SHOW: %d flat tuples, want 2", res.Relation.ExpansionSize())
	}
	// a second session sees nothing until commit — Exec would block on
	// the latch, so peek through the committed maintainer-free path: a
	// fresh read AFTER commit is the observable contract here
	mustExec("COMMIT")
	if s.InTx() {
		t.Fatal("InTx() = true after COMMIT")
	}
	other := NewSessionOn(db)
	if res, err := other.Exec("SHOW r"); err != nil || res.Relation.ExpansionSize() != 2 {
		t.Fatalf("committed writes invisible to other session: %v", err)
	}

	// rolled-back transaction
	mustExec("BEGIN")
	mustExec("DELETE FROM r VALUES (a1, b1)")
	mustExec("INSERT INTO r VALUES (a9, b9)")
	if res := mustExec("SHOW r"); res.Relation.ExpansionSize() != 2 {
		t.Fatalf("in-tx state wrong: %d flat tuples", res.Relation.ExpansionSize())
	}
	res := mustExec("ROLLBACK")
	if !strings.Contains(res.Message, "rolled back") {
		t.Fatalf("rollback message: %q", res.Message)
	}
	if res := mustExec("SHOW r"); res.Relation.ExpansionSize() != 2 {
		t.Fatalf("after rollback: %d flat tuples, want the 2 committed", res.Relation.ExpansionSize())
	}
	for _, stmt := range []string{"COMMIT", "ROLLBACK"} {
		if _, err := s.Exec(stmt); err == nil {
			t.Fatalf("%s with no open transaction accepted", stmt)
		}
	}

	// transactional DDL through the language
	mustExec("BEGIN")
	mustExec("CREATE tmp (X, Y)")
	mustExec("INSERT INTO tmp VALUES (x, y)")
	mustExec("ROLLBACK")
	if _, err := s.Exec("SHOW tmp"); err == nil {
		t.Fatal("rolled-back CREATE survived")
	}

	// Session.Close rolls back an open transaction
	mustExec("BEGIN")
	mustExec("INSERT INTO r VALUES (zz, zz)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.InTx() {
		t.Fatal("InTx() after Close")
	}
	if res, err := other.Exec("SHOW r"); err != nil || res.Relation.ExpansionSize() != 2 {
		t.Fatalf("Session.Close leaked uncommitted write: %v", err)
	}
}

// TestSessionSelectIgnoresOpenTx: while one session holds an open
// transaction with an uncommitted insert, another session's point,
// range and heap-scan SELECTs take no latch and answer from the state
// before it; after COMMIT they see the insert.
func TestSessionSelectIgnoresOpenTx(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "sess.nfrs"), engine.WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	writer, reader := NewSessionOn(db), NewSessionOn(db)
	defer writer.Close()
	mustExec(t, writer, "CREATE r (Student, Course, Club) ORDER (Course, Club, Student)")
	mustExec(t, writer, "INSERT INTO r VALUES (s1, c1, b1), (s2, c2, b1)")
	stmts := []string{
		"SELECT * FROM r WHERE Student = s1",
		"SELECT * FROM r WHERE Student = s3",
		"SELECT FLAT * FROM r WHERE Student >= s1 AND Student < s9",
		"SELECT * FROM r WHERE Course CONTAINS c9",
	}
	for i, want := range []string{"index-point", "index-point", "index-range", "heap-scan"} {
		if res := mustExec(t, reader, "EXPLAIN "+stmts[i]); !strings.Contains(res.Message, "access: "+want) {
			t.Fatalf("EXPLAIN %s:\n%s\nwant access %s", stmts[i], res.Message, want)
		}
	}
	answers := func() (string, error) {
		var b strings.Builder
		for _, stmt := range stmts {
			res, err := reader.Exec(stmt)
			if err != nil {
				return "", err
			}
			b.WriteString(res.String())
		}
		return b.String(), nil
	}
	before, err := answers()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "INSERT INTO r VALUES (s3, c9, b9)")
	waits := db.LatchWaits()
	got := make(chan string, 1)
	go func() {
		s, err := answers()
		if err != nil {
			s = err.Error()
		}
		got <- s
	}()
	select {
	case s := <-got:
		if s != before {
			t.Fatalf("SELECTs beside the open transaction answered\n%s\nwant the state before it\n%s", s, before)
		}
	case <-time.After(10 * time.Second): // the bound of a failure, not a wait
		t.Fatal("a SELECT is blocked behind the open transaction")
	}
	if n := db.LatchWaits(); n != waits {
		t.Fatalf("latch waits moved %d → %d: a SELECT queued on the latch", waits, n)
	}
	mustExec(t, writer, "COMMIT")
	if after, err := answers(); err != nil || after == before {
		t.Fatalf("SELECTs after COMMIT: err=%v, answers unchanged:\n%s", err, after)
	}
}

// TestBeginCommitRollbackRoundTrip: the new statements satisfy the
// parser's re-parse property like every other statement.
func TestBeginCommitRollbackRoundTrip(t *testing.T) {
	for _, in := range []string{"BEGIN", "commit", "Rollback"} {
		st, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", st.String(), err)
		}
		if st != st2 {
			t.Fatalf("round trip changed %q: %#v vs %#v", in, st, st2)
		}
	}
}
