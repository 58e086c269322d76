package store

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
	"repro/internal/workload"
)

func testDef(t testing.TB) RelationDef {
	t.Helper()
	s := schema.MustOf("Student", "Course", "Club")
	return RelationDef{
		Name:   "R1",
		Schema: s,
		Order:  schema.MustPermOf(s, "Course", "Club", "Student"),
		FDs:    []dep.FD{dep.NewFD([]string{"Student"}, []string{"Club"})},
		MVDs:   []dep.MVD{dep.NewMVD([]string{"Student"}, []string{"Course"})},
	}
}

// countTuples counts what a RelStore's or Shard's Scan visits (the store
// keeps no tuple counter).
func countTuples(t *testing.T, scan func(func(tuple.Tuple) bool) error) int {
	t.Helper()
	n := 0
	if err := scan(func(tuple.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCreateInsertScanReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateRelation(txn, def); err == nil {
		t.Error("duplicate relation accepted")
	}
	e := workload.GenEnrollment(3, workload.EnrollmentParams{
		Students: 20, CoursePool: 10, ClubPool: 4, SemesterPool: 3,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(txn, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	got, err := rs.LoadCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(canon) {
		t.Fatal("loaded relation differs from inserted content")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// reopen: catalog + heap + rebuilt indexes
	st2, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rs2, ok := st2.Rel("R1")
	if !ok {
		t.Fatalf("relation lost on reopen; have %v", st2.Relations())
	}
	d2 := rs2.Def()
	if !d2.Schema.Equal(def.Schema) || d2.Order.String() != def.Order.String() {
		t.Fatal("definition changed across reopen")
	}
	if len(d2.FDs) != 1 || d2.FDs[0].String() != def.FDs[0].String() {
		t.Fatalf("FDs lost: %v", d2.FDs)
	}
	if len(d2.MVDs) != 1 || d2.MVDs[0].String() != def.MVDs[0].String() {
		t.Fatalf("MVDs lost: %v", d2.MVDs)
	}
	got2, err := rs2.LoadCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(canon) {
		t.Fatal("content changed across reopen")
	}
	// the reattached index supports removal
	victim := canon.Tuple(0)
	txn2 := st2.Begin()
	if err := rs2.Remove(txn2, victim); err != nil {
		t.Fatal(err)
	}
	if n := countTuples(t, rs2.scan); n != canon.Len()-1 {
		t.Fatalf("%d tuples after remove", n)
	}
	if err := rs2.Remove(txn2, victim); err == nil {
		t.Error("double remove accepted")
	}
	if err := st2.Commit(txn2); err != nil {
		t.Fatal(err)
	}
}

func TestLookupFixed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	def := testDef(t) // fixed (last-nested) attribute is Student
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	// two tuples fixed on different students, one with a grouped set
	t1 := tupleOf([][]string{{"c1", "c2"}, {"b1"}, {"s1"}}, def.Order)
	t2 := tupleOf([][]string{{"c3"}, {"b2"}, {"s2", "s3"}}, def.Order)
	for _, tp := range []tuple.Tuple{t1, t2} {
		if err := rs.Insert(txn, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	hits, err := rs.LookupFixed(value.NewString("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || !hits[0].Equal(t1) {
		t.Fatalf("LookupFixed(s1) = %v", hits)
	}
	// grouped determinant: both member atoms find the tuple
	for _, s := range []string{"s2", "s3"} {
		hits, err := rs.LookupFixed(value.NewString(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 || !hits[0].Equal(t2) {
			t.Fatalf("LookupFixed(%s) = %v", s, hits)
		}
	}
	if hits, _ := rs.LookupFixed(value.NewString("s9")); len(hits) != 0 {
		t.Fatalf("LookupFixed(s9) = %v", hits)
	}
	// removal unindexes every member atom
	txn2 := st.Begin()
	if err := rs.Remove(txn2, t2); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	if hits, _ := rs.LookupFixed(value.NewString("s3")); len(hits) != 0 {
		t.Fatalf("LookupFixed(s3) after remove = %v", hits)
	}
}

// studentTuple is the flat tuple (student, c, b) of testDef's schema.
func studentTuple(student value.Atom) tuple.Tuple {
	return tuple.MustNew(vset.New(student), vset.OfStrings("c"), vset.OfStrings("b"))
}

// TestRemoveVictimAcrossAtomKinds: Int 1 and String "1" render alike
// but are different atoms, so removing the tuple fixed on one must
// leave the record of the other — in this session and after reopen.
func TestRemoveVictimAcrossAtomKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	kept, gone := studentTuple(value.NewInt(1)), studentTuple(value.NewString("1"))
	for _, step := range []func() error{
		func() error { return rs.Insert(txn, kept) },
		func() error { return rs.Insert(txn, gone) },
		func() error { return rs.Remove(txn, gone) },
		func() error { return st.Commit(txn) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *Store, rs *RelStore) {
		t.Helper()
		if err := st.VerifyIndexes(); err != nil {
			t.Fatal(err)
		}
		hits, err := rs.LookupFixed(value.NewInt(1))
		if err != nil || len(hits) != 1 || !hits[0].Equal(kept) {
			t.Fatalf("LookupFixed(Int 1) = %v, %v; want exactly %v", hits, err, kept)
		}
		if hits, err := rs.LookupFixed(value.NewString("1")); err != nil || len(hits) != 0 {
			t.Fatalf(`LookupFixed(String "1") = %v, %v; want nothing`, hits, err)
		}
	}
	check(st, rs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, mustRel(t, st, "R1"))
}

// TestLookupFixedAgreesWithCompare: value.Compare calls -0.0 and +0.0
// equal (the heap scan and the residual predicate use it), so the point
// probe must find a stored -0.0 under +0.0 and the other way round.
func TestLookupFixedAgreesWithCompare(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "db.nfrs"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	negZero := value.NewFloat(math.Copysign(0, -1))
	stored := studentTuple(negZero)
	if err := rs.Insert(txn, stored); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []value.Atom{value.NewFloat(0), negZero} {
		hits, err := rs.LookupFixed(probe)
		if err != nil || len(hits) != 1 || !hits[0].Equal(stored) {
			t.Fatalf("LookupFixed(%v, signbit %v) = %v, %v; want the stored -0.0 tuple",
				probe, math.Signbit(probe.F), hits, err)
		}
	}
}

// tupleOf builds an NFR tuple from components listed in nest order
// (Course, Club, Student for testDef), placing each at its schema
// position.
func tupleOf(comps [][]string, order schema.Permutation) tuple.Tuple {
	sets := make([][]string, len(comps))
	for pos, attr := range order {
		sets[attr] = comps[pos]
	}
	return core.TupleOfSets(sets...)
}

func TestDropRelation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Insert(txn, tupleOf([][]string{{"c1"}, {"b1"}, {"s1"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	txn2 := st.Begin()
	if err := st.DropRelation(txn2, "R1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	st.CompleteDrop("R1")
	if err := st.DropRelation(st.Begin(), "R1"); err == nil {
		t.Error("double drop accepted")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(st2.Relations()) != 0 {
		t.Fatalf("dropped relation resurrected: %v", st2.Relations())
	}
}

func TestCreateRelationValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	txn := st.Begin()
	if _, err := st.CreateRelation(txn, RelationDef{}); err == nil {
		t.Error("empty def accepted")
	}
	s := schema.MustOf("A", "B")
	if _, err := st.CreateRelation(txn, RelationDef{Name: "r", Schema: s, Order: schema.Permutation{0}}); err == nil {
		t.Error("bad order accepted")
	}
}

func TestCatalogRecordRoundTrip(t *testing.T) {
	def := testDef(t)
	rec := encodeCatalogRecord(def, []shardRoots{{7, 15}})
	ce, err := decodeCatalogRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if ce.shards[0].heapFirst != 7 || ce.def.Name != def.Name ||
		!ce.def.Schema.Equal(def.Schema) ||
		ce.def.Order.String() != def.Order.String() ||
		len(ce.def.FDs) != 1 || !ce.def.FDs[0].Equal(def.FDs[0]) ||
		len(ce.def.MVDs) != 1 || ce.def.MVDs[0].String() != def.MVDs[0].String() {
		t.Fatalf("round trip changed definition: %+v", ce)
	}
	// every truncation of the record is rejected, never panics
	for i := 1; i < len(rec); i++ {
		if _, err := decodeCatalogRecord(rec[:i]); err == nil {
			t.Fatalf("truncated catalog record of %d bytes accepted", i)
		}
	}
}

// TestSweepReclaimsOrphanedPages: a drop that runs while ANOTHER
// transaction owns the free list leaves its chain orphaned (freePages
// refuses to wait — see freelist.go). The sweep that reclaims such
// pages runs automatically only on crashed opens (sidecar present);
// after a clean close the orphans stay until the next crashed open
// — a clean open must stay bounded by catalog + index metadata and
// never walk the heaps.
func TestSweepReclaimsOrphanedPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.nfrs")
	def := testDef(t)
	// several fat records so the chain spans multiple pages
	pad := make([]byte, 900)
	for i := range pad {
		pad[i] = 'x'
	}
	// orphanDrop creates a multi-page relation and drops it while a
	// foreign transaction owns the free list, returning the orphaned
	// chain length (heap + index pages).
	orphanDrop := func(st *Store, name string) int {
		t.Helper()
		d := def
		d.Name = name
		setup := st.Begin()
		rs, err := st.CreateRelation(setup, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			tp := tupleOf([][]string{
				{string(pad) + string(rune('a'+i))}, {"b"}, {string(rune('s' + i))},
			}, d.Order)
			if err := rs.Insert(setup, tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(setup); err != nil {
			t.Fatal(err)
		}
		chain, err := rs.pages()
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) < 2 {
			t.Fatalf("chain has %d page(s); need ≥ 2 for a meaningful sweep", len(chain))
		}
		free0 := st.freeCount()
		owner := st.Begin()
		if err := st.freePages(owner, nil); err != nil {
			t.Fatal(err)
		}
		drop := st.Begin()
		if err := st.DropRelation(drop, name); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(drop); err != nil {
			t.Fatal(err)
		}
		st.CompleteDrop(name)
		if got := st.freeCount(); got != free0 {
			t.Fatalf("drop under foreign free-list ownership freed %d page(s), want %d (orphaned)", got, free0)
		}
		if err := st.Commit(owner); err != nil {
			t.Fatal(err)
		}
		return len(chain)
	}

	st, err := Open(path, Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	orphaned := orphanDrop(st, "R1")
	// "crash": checkpoint so the data file is current, then discard —
	// the sidecar stays behind, so the next open runs recovery AND the
	// sweep
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Discard()

	st2, err := Open(path, Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.freeCount(); got < orphaned {
		t.Fatalf("post-crash sweep reclaimed %d page(s), want ≥ %d (the orphaned chain)", got, orphaned)
	}
	reclaimed := st2.freeCount()

	// orphan again, close CLEANLY: the next open must NOT sweep...
	orphaned2 := orphanDrop(st2, "R2")
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(path, Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	after := st3.freeCount()
	if after >= reclaimed+orphaned2 {
		t.Fatalf("clean open swept orphans: %d free pages (had %d)", after, reclaimed)
	}
	// ...but an explicit sweep reclaims them
	if err := st3.sweepOrphans(); err != nil {
		t.Fatal(err)
	}
	if got := st3.freeCount(); got < after+orphaned2 {
		t.Fatalf("explicit sweep reclaimed %d page(s), want ≥ %d", got-after, orphaned2)
	}
	// a second sweep finds nothing further
	before := st3.freeCount()
	if err := st3.sweepOrphans(); err != nil {
		t.Fatal(err)
	}
	if got := st3.freeCount(); got != before {
		t.Fatalf("second sweep changed the free list: %d vs %d", got, before)
	}
}
