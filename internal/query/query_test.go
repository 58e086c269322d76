package query

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func mustExec(t *testing.T, s *Session, stmt string) Result {
	t.Helper()
	res, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", stmt, err)
	}
	return res
}

func newStudentSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	mustExec(t, s, `CREATE R1 (Student:string, Course:string, Club:string)
		ORDER (Course, Club, Student)
		MVD Student ->-> Course`)
	mustExec(t, s, `INSERT INTO R1 VALUES
		(s1, c1, b1), (s1, c2, b1), (s1, c3, b1),
		(s3, c1, b1), (s3, c2, b1), (s3, c3, b1),
		(s2, c1, b2), (s2, c2, b2), (s2, c3, b2)`)
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`SELECT a, "two words" FROM r WHERE x >= -3.5 -- comment
AND y ->-> z`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "two words", "FROM", "r", "WHERE", "x", ">=", "-3.5", "AND", "y", "->->", "z"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("a ; b"); err == nil {
		t.Error("unknown character accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROBNICATE r",
		"CREATE r",
		"CREATE r (A",
		"CREATE r (A:wat)",
		"CREATE r (A) ORDER A",
		"INSERT r VALUES (1)",
		"INSERT INTO r (1)",
		"INSERT INTO r VALUES 1",
		"SELECT FROM r",
		"SELECT * r",
		"SELECT * FROM r WHERE",
		"SELECT * FROM r WHERE x !! 1",
		"SELECT * FROM r WHERE CARD(x) = foo",
		"NEST r",
		"NEST r ON",
		"JOIN a b",
		"SHOW",
		"SELECT * FROM r extra",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestCreateInsertShow(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, "SHOW R1")
	if res.Relation == nil {
		t.Fatal("SHOW returned no relation")
	}
	if res.Relation.ExpansionSize() != 9 {
		t.Errorf("expansion = %d", res.Relation.ExpansionSize())
	}
	// s1, s3 grouped; s2 alone
	if res.Relation.Len() != 2 {
		t.Errorf("NFR tuples = %d\n%s", res.Relation.Len(), res)
	}
	out := res.String()
	if !strings.Contains(out, "Student") || !strings.Contains(out, "c1,c2,c3") {
		t.Errorf("table rendering:\n%s", out)
	}
}

func TestInsertDuplicateCount(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, "INSERT INTO R1 VALUES (s1, c1, b1), (s9, c9, b9)")
	if !strings.Contains(res.Message, "inserted 1 tuple(s)") {
		t.Errorf("message = %q", res.Message)
	}
}

func TestDeleteStatement(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, "DELETE FROM R1 VALUES (s1, c1, b1)")
	if !strings.Contains(res.Message, "deleted 1") {
		t.Errorf("message = %q", res.Message)
	}
	show := mustExec(t, s, "SHOW R1")
	if show.Relation.ExpansionSize() != 8 {
		t.Errorf("expansion = %d", show.Relation.ExpansionSize())
	}
	res = mustExec(t, s, "DELETE FROM R1 VALUES (zz, zz, zz)")
	if !strings.Contains(res.Message, "deleted 0") {
		t.Errorf("message = %q", res.Message)
	}
}

func TestSelectWhereContains(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, `SELECT * FROM R1 WHERE Student CONTAINS s2`)
	if res.Relation.Len() != 1 {
		t.Fatalf("rows = %d", res.Relation.Len())
	}
	if !res.Relation.Tuple(0).Set(2).Contains(value.NewString("b2")) {
		t.Error("wrong tuple selected")
	}
}

func TestSelectProjection(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, "SELECT Student, Club FROM R1")
	if res.Relation.Schema().Degree() != 2 {
		t.Errorf("schema = %v", res.Relation.Schema())
	}
	res = mustExec(t, s, "SELECT FLAT Student, Club FROM R1")
	// flat projection: (s1,b1),(s3,b1),(s2,b2) = 3 flats
	if res.Relation.ExpansionSize() != 3 {
		t.Errorf("flat projection expansion = %d", res.Relation.ExpansionSize())
	}
}

func TestSelectCardPredicate(t *testing.T) {
	s := newStudentSession(t)
	mustExec(t, s, "DELETE FROM R1 VALUES (s2, c3, b2)")
	res := mustExec(t, s, "SELECT * FROM R1 WHERE CARD(Course) >= 3")
	// only the {s1,s3} group still has 3 courses
	if res.Relation.Len() != 1 {
		t.Errorf("rows = %d:\n%s", res.Relation.Len(), res)
	}
	res = mustExec(t, s, "SELECT * FROM R1 WHERE CARD(Course) < 3")
	if res.Relation.Len() != 1 {
		t.Errorf("rows = %d", res.Relation.Len())
	}
}

func TestSelectBooleanOperators(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s,
		`SELECT * FROM R1 WHERE (Club = b1 OR Club = b2) AND NOT Student CONTAINS s2`)
	if res.Relation.Len() != 1 {
		t.Errorf("rows = %d", res.Relation.Len())
	}
	// ALL quantifier
	res = mustExec(t, s, `SELECT * FROM R1 WHERE Course ALL <> c9`)
	if res.Relation.Len() != 2 {
		t.Errorf("ALL rows = %d", res.Relation.Len())
	}
}

func TestNestUnnestStatements(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "CREATE r (A, B)")
	mustExec(t, s, "INSERT INTO r VALUES (a1, b1), (a1, b2)")
	res := mustExec(t, s, "UNNEST r ON B")
	if res.Relation.Len() != 2 {
		t.Errorf("unnest rows = %d", res.Relation.Len())
	}
	res = mustExec(t, s, "NEST r ON B")
	if res.Relation.Len() != 1 {
		t.Errorf("nest rows = %d", res.Relation.Len())
	}
}

func TestJoinStatement(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "CREATE sc (Student, Course)")
	mustExec(t, s, "CREATE sb (Student, Club)")
	mustExec(t, s, "INSERT INTO sc VALUES (s1, c1), (s1, c2), (s2, c1)")
	mustExec(t, s, "INSERT INTO sb VALUES (s1, b1), (s2, b2)")
	res := mustExec(t, s, "JOIN sc, sb")
	if res.Relation.ExpansionSize() != 3 {
		t.Errorf("join expansion = %d\n%s", res.Relation.ExpansionSize(), res)
	}
	if res.Relation.Schema().Degree() != 3 {
		t.Errorf("join schema = %v", res.Relation.Schema())
	}
}

func TestStatsAndValidate(t *testing.T) {
	s := newStudentSession(t)
	res := mustExec(t, s, "STATS R1")
	if !strings.Contains(res.Message, "compression") {
		t.Errorf("stats = %q", res.Message)
	}
	res = mustExec(t, s, "VALIDATE R1")
	if !strings.Contains(res.Message, "hold") {
		t.Errorf("validate = %q", res.Message)
	}
	// break the MVD and re-validate
	mustExec(t, s, "INSERT INTO R1 VALUES (s1, c9, b9)")
	res = mustExec(t, s, "VALIDATE R1")
	if !strings.Contains(res.Message, "violation") {
		t.Errorf("validate after break = %q", res.Message)
	}
}

func TestDropStatement(t *testing.T) {
	s := newStudentSession(t)
	mustExec(t, s, "DROP R1")
	if _, err := s.Exec("SHOW R1"); err == nil {
		t.Error("SHOW after DROP succeeded")
	}
	if _, err := s.Exec("DROP R1"); err == nil {
		t.Error("double DROP succeeded")
	}
}

func TestExecErrors(t *testing.T) {
	s := NewSession()
	cases := []string{
		"SHOW missing",
		"STATS missing",
		"VALIDATE missing",
		"INSERT INTO missing VALUES (1)",
		"DELETE FROM missing VALUES (1)",
		"SELECT * FROM missing",
		"NEST missing ON a",
		"UNNEST missing ON a",
		"JOIN missing, missing2",
	}
	for _, q := range cases {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
	mustExec(t, s, "CREATE r (A)")
	if _, err := s.Exec("CREATE r (A)"); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := s.Exec("CREATE r2 (A) ORDER (Nope)"); err == nil {
		t.Error("bad order attr accepted")
	}
	if _, err := s.Exec("SELECT * FROM r WHERE Nope = 1"); err == nil {
		t.Error("unknown predicate attr accepted")
	}
	if _, err := s.Exec("SELECT Nope FROM r"); err == nil {
		t.Error("unknown projection attr accepted")
	}
	if _, err := s.Exec("NEST r ON Nope"); err == nil {
		t.Error("unknown nest attr accepted")
	}
}

func TestLiteralKinds(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "CREATE t (I:int, F:float, B:bool, S:string)")
	mustExec(t, s, `INSERT INTO t VALUES (42, 2.5, true, "hello world")`)
	res := mustExec(t, s, "SELECT * FROM t WHERE I = 42 AND F >= 2.0 AND B = true")
	if res.Relation.Len() != 1 {
		t.Errorf("typed row not found:\n%s", res)
	}
	// kind mismatch caught by engine
	if _, err := s.Exec("INSERT INTO t VALUES (nope, 2.5, true, x)"); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestCreateWithFD(t *testing.T) {
	s := NewSession()
	res := mustExec(t, s, "CREATE emp (Emp, Dept, Mgr) FD Dept -> Mgr")
	if !strings.Contains(res.Message, "created emp") {
		t.Errorf("create message = %q", res.Message)
	}
	// FD determinant Dept should be nested last by SuggestOrder
	if !strings.Contains(res.Message, "Dept]") {
		t.Errorf("nest order message = %q", res.Message)
	}
	mustExec(t, s, "INSERT INTO emp VALUES (e1, d1, m1), (e2, d1, m1)")
	res = mustExec(t, s, "VALIDATE emp")
	if !strings.Contains(res.Message, "hold") {
		t.Errorf("validate = %q", res.Message)
	}
}
