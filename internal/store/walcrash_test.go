package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/storage/crashfs"
	"repro/internal/workload"
)

// This file is the crash-injection harness for the recovery protocol
// (docs/recovery.md): the whole database lives in a crashfs file system
// that journals every write, and crashfs.Sweep re-creates every
// distinct on-disk state a crash in the journal can leave — torn log
// tails, torn data pages, and lost unsynced writes — then reopens and
// asserts the canonical form is exactly a statement boundary, never a
// mix, the durable indexes answer identically to the heap-rebuilt
// oracle, and every page the recovered state references is
// checksum-valid.

// loadStateErr opens the database in the given filesystem state and
// returns the canonical form of every named relation. Opening runs
// recovery; it must never fail, must leave every data page
// checksum-valid, and the recovered durable indexes must answer
// identically to the rebuilt-from-heap oracle.
func loadStateErr(files map[string][]byte, label string, names ...string) (map[string]*core.Relation, error) {
	fs := crashfs.New(files)
	st, err := Open("db", Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("%s: recovery failed: %v", label, err)
	}
	defer st.Discard()
	out := make(map[string]*core.Relation, len(names))
	for _, name := range names {
		rs, ok := st.Rel(name)
		if !ok {
			return nil, fmt.Errorf("%s: relation %s lost", label, name)
		}
		rel, err := rs.Load()
		if err != nil {
			return nil, fmt.Errorf("%s: load of %s failed: %v", label, name, err)
		}
		out[name] = rel
	}
	// the durable index must be exactly a view of the recovered heap
	if err := st.VerifyIndexes(); err != nil {
		return nil, fmt.Errorf("%s: index diverged from heap oracle: %v", label, err)
	}
	ref, err := st.ReferencedPages()
	if err != nil {
		return nil, fmt.Errorf("%s: walking recovered chains: %v", label, err)
	}
	if err := fs.CheckPages("db", ref); err != nil {
		return nil, fmt.Errorf("%s: %v", label, err)
	}
	return out, nil
}

// sweep runs check on every distinct crash state of journal over base
// and logs the sweep's work.
func sweep(t *testing.T, base map[string][]byte, journal crashfs.Journal, check func(c crashfs.Cut, files map[string][]byte) error) {
	t.Helper()
	stats, err := crashfs.Sweep(base, journal, check)
	t.Logf("sweep: %v", stats)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryEveryOffset is the acceptance harness: two
// statements are journaled, a crash is injected at every byte offset of
// the journal in both replay modes, and every reopen must recover a
// checksum-valid file whose canonical form is exactly the pre-, mid-,
// or post-statement state.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	def := testDef(t)

	// base: a small multi-page database, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	if _, err := st.CreateRelation(setup, def); err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(5, workload.EnrollmentParams{
		Students: 12, CoursePool: 8, ClubPool: 4, SemesterPool: 3,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	rs, _ := st.Rel(def.Name)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(setup, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// a few fat padding tuples push the heap across several pages so the
	// statements below dirty (and the crashes tear) more than one page,
	// while keeping the per-reopen index rebuild cheap (the harness
	// reopens the database tens of thousands of times)
	pad := make([]byte, 700)
	for i := range pad {
		pad[i] = 'p'
	}
	for i := 0; i < 7; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("%s-%d", pad, i)}, {"padclub"}, {fmt.Sprintf("pads%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Snapshot()["db.wal"]; ok {
		t.Fatal("clean close left a WAL sidecar")
	}

	// journal two statements against the reopened database
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	pre, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	base := fs.Record()
	// statement 1: a mixed add/remove batch dirtying several pages
	// (victims from both ends of the heap chain), one transaction, one
	// group commit
	stmt1 := st2.Begin()
	for _, victim := range []int{0, pre.Len() - 1} {
		if err := rs2.Remove(stmt1, pre.Tuple(victim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs2.Insert(stmt1, tupleOf([][]string{{"zc1", "zc2"}, {"zb1"}, {"zs1"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Commit(stmt1); err != nil {
		t.Fatal(err)
	}
	mark1 := fs.Journal().End()
	mid, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	// statement 2: another add/remove batch
	stmt2 := st2.Begin()
	if err := rs2.Insert(stmt2, tupleOf([][]string{{"zc3"}, {"zb2", "zb3"}, {"zs2"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := rs2.Remove(stmt2, mid.Tuple(1)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Commit(stmt2); err != nil {
		t.Fatal(err)
	}
	post, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	journal := fs.Journal()
	st2.Discard() // crash: no checkpoint, no close-time flush

	if pre.Equal(mid) || mid.Equal(post) || pre.Equal(post) {
		t.Fatal("statements must produce three distinct states")
	}
	total := journal.End()
	if total < 2*storage.PageSize {
		t.Fatalf("journal too small (%d bytes) to exercise torn pages", total)
	}
	t.Logf("journal: %d ops, %d bytes (statement boundary at %d)", len(journal), total, mark1)

	matches := func(rel *core.Relation, allowed ...*core.Relation) bool {
		for _, a := range allowed {
			if rel.Equal(a) {
				return true
			}
		}
		return false
	}
	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		label := c.String()
		state, err := loadStateErr(files, label, "R1")
		if err != nil {
			return err
		}
		got := state["R1"]
		// never a mix: only complete statement states are legal, and
		// a crash before the second statement's journal region can
		// never yield its outcome
		if c.K <= mark1 {
			if !matches(got, pre, mid) {
				return fmt.Errorf("%s: recovered state is not pre or mid statement state", label)
			}
		} else if !matches(got, pre, mid, post) {
			return fmt.Errorf("%s: recovered state is not a statement boundary", label)
		}
		return nil
	})
}

// TestCrashRecoveryAcrossCheckpoints: with an aggressive auto-checkpoint
// threshold the journal interleaves commits, data syncs, and log
// truncations; a crash in every distinct state must still recover a
// statement-boundary state (the post-checkpoint batches carry
// continuing sequence numbers — a regression here dropped them all).
func TestCrashRecoveryAcrossCheckpoints(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: 1}
	def := testDef(t)
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	if _, err := st.CreateRelation(setup, def); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	base := fs.Record()
	states := []*core.Relation{}
	rel, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	states = append(states, rel)
	for i := 0; i < 4; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("c%d", i)}, {fmt.Sprintf("b%d", i)}, {fmt.Sprintf("s%d", i)},
		}, def.Order)
		stmt := st2.Begin()
		if err := rs2.Insert(stmt, tp); err != nil {
			t.Fatal(err)
		}
		if err := st2.Commit(stmt); err != nil { // checkpoints every time (threshold 1)
			t.Fatal(err)
		}
		rel, err := rs2.Load()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, rel)
	}
	journal := fs.Journal()
	st2.Discard()

	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		label := "ckpt " + c.String()
		got, err := loadStateErr(files, label, "R1")
		if err != nil {
			return err
		}
		for _, s := range states {
			if got["R1"].Equal(s) {
				return nil
			}
		}
		return fmt.Errorf("%s: recovered state is not a statement boundary", label)
	})
}

// TestRaggedTailWithEmptyWAL: a torn extension write can land after a
// checkpoint emptied (or a clean close removed) the log — e.g. the
// first statement to grow the heap tears its Pager.Allocate write. The
// ragged tail is provably uncommitted, so reopen must round the file
// down and succeed rather than brick the database (a regression here
// made such files permanently unopenable).
func TestRaggedTailWithEmptyWAL(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove}
	def := testDef(t)
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	want := tupleOf([][]string{{"c1"}, {"b1"}, {"s1"}}, def.Order)
	if err := rs.Insert(txn, want); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// torn extension: a partial page appended past the committed end
	files := fs.Snapshot()
	files["db"] = append(files["db"], make([]byte, 1234)...)
	fs = crashfs.New(files)
	opts.OpenFile, opts.RemoveFile = fs.Open, fs.Remove
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatalf("ragged tail with empty WAL bricked the database: %v", err)
	}
	defer st2.Close()
	rs2, ok := st2.Rel(def.Name)
	if !ok {
		t.Fatal("relation lost")
	}
	rel, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || !rel.Tuple(0).Equal(want) {
		t.Fatal("content lost rounding off the torn tail")
	}
	// a file cut below one page still refuses (nothing to validate)
	fs2 := crashfs.New(map[string][]byte{"db": append([]byte(nil), files["db"][:100]...)})
	if _, err := Open("db", Options{PoolPages: 8, OpenFile: fs2.Open, RemoveFile: fs2.Remove}); err == nil {
		t.Fatal("sub-page file reopened without error")
	}
}

// TestDropRelationReclaimsPages: dropping a relation pushes its chain
// onto the free list and a subsequent relation reuses those pages
// instead of growing the file.
func TestDropRelationReclaimsPages(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove}
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(7, workload.EnrollmentParams{
		Students: 60, CoursePool: 20, ClubPool: 6, SemesterPool: 3,
		CoursesPerStudent: 4, ClubsPerStudent: 2,
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
	pages := st.NumPages()
	drop := st.Begin()
	if err := st.DropRelation(drop, def.Name); err != nil {
		t.Fatal(err)
	}
	if st.FreePages() == 0 {
		t.Fatal("drop reclaimed no pages")
	}
	if err := st.Commit(drop); err != nil {
		t.Fatal(err)
	}
	st.CompleteDrop(def.Name)
	freed := st.FreePages()

	// free list survives reopen
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.FreePages(); got != freed {
		t.Fatalf("free list lost across reopen: %d != %d", got, freed)
	}

	// a new relation of the same size reuses the freed pages: the file
	// barely grows
	def2 := def
	def2.Name = "R2"
	txn2 := st2.Begin()
	rs2, err := st2.CreateRelation(txn2, def2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < canon.Len(); i++ {
		if err := rs2.Insert(txn2, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	if grown := st2.NumPages() - pages; grown > 2 {
		t.Fatalf("file grew %d pages despite %d free pages", grown, freed)
	}
	got, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(canon) {
		t.Fatal("relation on recycled pages diverged")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStatsBucketedSeparately: the I/O spent by Open (recovery,
// catalog load, index rebuild) must not pollute the steady-state pool
// counters the bench reports.
func TestOpenStatsBucketedSeparately(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove}
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, _ := st.CreateRelation(txn, def)
	e := workload.GenEnrollment(5, workload.EnrollmentParams{
		Students: 30, CoursePool: 10, ClubPool: 4, SemesterPool: 3,
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
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	open := st2.OpenIOStats()
	if open.Misses == 0 {
		t.Fatal("open-phase bucket recorded no I/O despite an index rebuild")
	}
	if h, m, _ := st2.PoolStats(); h != 0 || m != 0 {
		t.Fatalf("steady-state counters polluted by open: hits=%d misses=%d", h, m)
	}
	rs2, _ := st2.Rel(def.Name)
	if _, err := rs2.Load(); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := st2.PoolStats(); h+m == 0 {
		t.Fatal("steady-state counters did not move after a scan")
	}
}

// TestCrashRecoveryMergedCommit crashes inside a MERGED commit batch:
// transaction T1's fsync is gated while T2 and T3 pile into the commit
// queue, so T2+T3 become one WAL write and one fsync. A crash in every
// distinct state of the journal must recover a prefix of the commit order
// (T2's batch precedes T3's inside the merged write) — always whole
// transactions, never a mix.
func TestCrashRecoveryMergedCommit(t *testing.T) {
	fs, gate := crashfs.New(nil), crashfs.NewGate()
	opts := Options{PoolPages: 16, OpenFile: gate.Open(fs.Open), RemoveFile: fs.Remove, CheckpointBytes: -1}

	// base: three one-tuple relations, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"R1", "R2", "R3"}
	setup := st.Begin()
	for i, name := range names {
		def := testDef(t)
		def.Name = name
		rs, err := st.CreateRelation(setup, def)
		if err != nil {
			t.Fatal(err)
		}
		tp := tupleOf([][]string{
			{fmt.Sprintf("c%d", i)}, {fmt.Sprintf("b%d", i)}, {fmt.Sprintf("s%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	order := testDef(t).Order
	relOf := func(name string) *RelStore {
		rs, ok := st2.Rel(name)
		if !ok {
			t.Fatalf("relation %s missing", name)
		}
		return rs
	}
	snap := func() map[string]*core.Relation {
		out := map[string]*core.Relation{}
		for _, name := range names {
			rel, err := relOf(name).Load()
			if err != nil {
				t.Fatal(err)
			}
			out[name] = rel
		}
		return out
	}
	s0 := snap()

	// hold the first WAL fsync (T1's) until told to proceed
	gate.Armed.Store(true)
	base := fs.Record()
	errs := make(chan error, 3)
	t1 := st2.Begin()
	if err := relOf("R1").Insert(t1, tupleOf([][]string{{"x1"}, {"y1"}, {"z1"}}, order)); err != nil {
		t.Fatal(err)
	}
	go func() { errs <- st2.Commit(t1) }()
	<-gate.Entered // T1's leader is inside its fsync, holding the commit lock

	t2 := st2.Begin()
	if err := relOf("R2").Insert(t2, tupleOf([][]string{{"x2"}, {"y2"}, {"z2"}}, order)); err != nil {
		t.Fatal(err)
	}
	go func() { errs <- st2.Commit(t2) }()
	waitPending := func(n int) {
		t.Helper()
		for i := 0; i < 10000; i++ {
			if st2.bp.PendingCommits() == n {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatalf("commit queue never reached %d", n)
	}
	waitPending(1)
	t3 := st2.Begin()
	if err := relOf("R3").Insert(t3, tupleOf([][]string{{"x3"}, {"y3"}, {"z3"}}, order)); err != nil {
		t.Fatal(err)
	}
	go func() { errs <- st2.Commit(t3) }()
	waitPending(2)
	// release T1; the next leader drains T2+T3 as one group
	gate.Armed.Store(false)
	gate.Release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	journal := fs.Journal()

	ws := st2.WALStats()
	if ws.Batches != 3 || ws.Fsyncs != 2 || ws.MaxGroupBatches < 2 {
		t.Fatalf("commit did not merge: %d batches / %d fsyncs / max group %d",
			ws.Batches, ws.Fsyncs, ws.MaxGroupBatches)
	}

	// expected recovery states: the chain of whole-transaction prefixes
	s1 := snap() // T1+T2+T3 applied in memory — derive intermediate states below
	st2.Discard()
	// s0 = base; sA = +T1; sB = +T1+T2; s1 = +T1+T2+T3
	add := func(m map[string]*core.Relation, name, c, b, s string) map[string]*core.Relation {
		out := map[string]*core.Relation{}
		for k, v := range m {
			out[k] = v
		}
		rel := core.NewRelation(out[name].Schema())
		for i := 0; i < out[name].Len(); i++ {
			rel.Add(out[name].Tuple(i))
		}
		rel.Add(tupleOf([][]string{{c}, {b}, {s}}, order))
		out[name] = rel
		return out
	}
	sA := add(s0, "R1", "x1", "y1", "z1")
	sB := add(sA, "R2", "x2", "y2", "z2")
	sC := add(sB, "R3", "x3", "y3", "z3")
	for _, name := range names {
		if !sC[name].Equal(s1[name]) {
			t.Fatalf("derived final state of %s diverges from live state", name)
		}
	}
	chain := []map[string]*core.Relation{s0, sA, sB, sC}

	t.Logf("merged-commit journal: %d ops, %d bytes", len(journal), journal.End())
	matches := func(got, want map[string]*core.Relation) bool {
		for _, name := range names {
			if !got[name].Equal(want[name]) {
				return false
			}
		}
		return true
	}
	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		label := "merged " + c.String()
		got, err := loadStateErr(files, label, names...)
		if err != nil {
			return err
		}
		for _, want := range chain {
			if matches(got, want) {
				return nil
			}
		}
		return fmt.Errorf("%s: recovered state is not a whole-transaction prefix", label)
	})
}

// TestFailedCommitDoesNotWedge: a commit whose fsync fails must be
// recoverable — Rollback (plus ForgetRelation for a create: the
// engine's failed-create path) releases the failed transaction's page
// ownership, so later transactions (which claim the same catalog and
// free-list pages) proceed instead of blocking forever, and the
// store's in-memory state matches the durable state.
func TestFailedCommitDoesNotWedge(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	st, err := Open("db", opts)
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

	// failed CREATE: commit error, abort, then the same create succeeds
	fs.FailSyncs(1)
	def2 := def
	def2.Name = "R2"
	ctxn := st.Begin()
	if _, err := st.CreateRelation(ctxn, def2); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(ctxn); err == nil {
		t.Fatal("injected sync failure did not surface")
	}
	if err := st.Rollback(ctxn); err != nil {
		t.Fatal(err)
	}
	st.ForgetRelation(def2.Name)
	done := make(chan error, 1)
	go func() {
		retry := st.Begin()
		rs2, err := st.CreateRelation(retry, def2)
		if err == nil {
			err = rs2.Insert(retry, tupleOf([][]string{{"c2"}, {"b2"}, {"s2"}}, def.Order))
		}
		if err == nil {
			err = st.Commit(retry)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("create after rolled-back create failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("create after rolled-back create blocked — catalog page ownership wedged")
	}

	// failed DROP: commit error, rollback, relation stays fully usable
	fs.FailSyncs(1)
	dtxn := st.Begin()
	if err := st.DropRelation(dtxn, def.Name); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(dtxn); err == nil {
		t.Fatal("injected sync failure did not surface on drop")
	}
	if err := st.Rollback(dtxn); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Rel(def.Name); !ok {
		t.Fatal("relation vanished after rolled-back drop")
	}
	wtxn := st.Begin()
	if err := rs.Insert(wtxn, tupleOf([][]string{{"c3"}, {"b3"}, {"s3"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(wtxn); err != nil {
		t.Fatalf("write after rolled-back drop failed: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// durable state: R1 (2 tuples) and R2 (1 tuple) both present
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r1, ok := st2.Rel("R1")
	if !ok || countTuples(t, r1.Scan) != 2 {
		t.Fatalf("R1 wrong after reopen: ok=%v", ok)
	}
	r2, ok := st2.Rel("R2")
	if !ok || countTuples(t, r2.Scan) != 1 {
		t.Fatalf("R2 wrong after reopen: ok=%v", ok)
	}
}

// TestCrashRecoveryIndexSplit is the index-page acceptance harness: a
// transaction inserts enough tuples to SPLIT B+tree nodes (forced via
// the fan-out knob so the journal stays small), so the injected crashes
// land inside index-page WAL images, the new root and the redistributed
// leaf halves. Recovery in every distinct crash state must yield
// a checksum-valid file whose durable index passes the heap-scan oracle
// (loadStateErr checks it) at a transaction boundary.
func TestCrashRecoveryIndexSplit(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 16, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	def := testDef(t)

	// base: a handful of committed tuples, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	rs, err := st.CreateRelation(setup, def)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("c%d", i)}, {fmt.Sprintf("b%d", i)}, {fmt.Sprintf("s%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	// cap node fan-out so the next few inserts overflow and split; the
	// durable structure stays self-describing, so the recovery opens
	// below need no knob
	rs2.Shard(0).SetRangeIndexMaxEntries(2)
	tree := rs2.shards[0].rangeD
	_, leaves, err := tree.PageCounts()
	if err != nil {
		t.Fatal(err)
	}
	pre, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}

	base := fs.Record()
	txn := st2.Begin()
	for i := 0; i < 5; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("xc%d", i)}, {fmt.Sprintf("xb%d", i)}, {fmt.Sprintf("xs%d", i)},
		}, def.Order)
		if err := rs2.Insert(txn, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Commit(txn); err != nil {
		t.Fatal(err)
	}
	journal := fs.Journal()
	// (a root split, which is what grows the height, splits a leaf first)
	if _, after, err := tree.PageCounts(); err != nil || after <= leaves {
		t.Fatalf("journaled transaction split no leaf (%d→%d leaves, %v); harness is vacuous", leaves, after, err)
	}
	post, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	st2.Discard() // crash: no checkpoint, no close-time flush
	if pre.Equal(post) {
		t.Fatal("transaction changed nothing")
	}

	total := journal.End()
	if total < 3*storage.PageSize {
		t.Fatalf("journal too small (%d bytes) to tear split pages", total)
	}
	t.Logf("index-split journal: %d ops, %d bytes", len(journal), total)
	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		label := "split " + c.String()
		state, err := loadStateErr(files, label, "R1")
		if err != nil {
			return err
		}
		if got := state["R1"]; !got.Equal(pre) && !got.Equal(post) {
			return fmt.Errorf("%s: recovered state is not a transaction boundary", label)
		}
		return nil
	})
}

// TestCrashRecoveryDeltaAcrossCheckpoint sweeps the delta-record era:
// the journal holds four statements whose WAL records mix first-touch
// full images and delta records, with an explicit checkpoint in the
// middle (so the sweep crosses a log truncation and the first-touch
// rule restarts). Every distinct crash state in both replay modes must
// recover a statement-boundary state — a torn delta tail must roll back to the
// previous boundary, and a torn data page must be repairable from the
// era's first-touch full image even when the only log records since
// are deltas.
func TestCrashRecoveryDeltaAcrossCheckpoint(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	def := testDef(t)

	// base: a multi-page database, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	rs, err := st.CreateRelation(setup, def)
	if err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(9, workload.EnrollmentParams{
		Students: 12, CoursePool: 8, ClubPool: 4, SemesterPool: 3,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(setup, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	pad := make([]byte, 700)
	for i := range pad {
		pad[i] = 'q'
	}
	for i := 0; i < 7; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("%s-%d", pad, i)}, {"padclub"}, {fmt.Sprintf("pads%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	snap := func() *core.Relation {
		t.Helper()
		rel, err := rs2.Load()
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	states := []*core.Relation{snap()}
	stmt := func(add, del [][]string) {
		t.Helper()
		txn := st2.Begin()
		if add != nil {
			if err := rs2.Insert(txn, tupleOf(add, def.Order)); err != nil {
				t.Fatal(err)
			}
		}
		if del != nil {
			if err := rs2.Remove(txn, tupleOf(del, def.Order)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st2.Commit(txn); err != nil {
			t.Fatal(err)
		}
		states = append(states, snap())
	}

	base := fs.Record()
	// era 1: statement A first-touches its pages after recovery's Reset
	// (full images), statement B dirties the same tail pages again
	// (deltas)
	stmt([][]string{{"da1"}, {"db1"}, {"ds1"}}, nil)
	stmt([][]string{{"da2"}, {"db2"}, {"ds2"}}, nil)
	preCkpt := st2.WALStats()
	if preCkpt.DeltaPages == 0 {
		t.Fatalf("statement B logged no delta records (full=%d delta=%d); sweep is vacuous",
			preCkpt.FullPages, preCkpt.DeltaPages)
	}
	// checkpoint: log truncates, the first-touch rule starts over
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	// era 2: statement C first-touches again (full images), statement D
	// deltas the same pages
	stmt([][]string{{"da3"}, {"db3"}, {"ds3"}}, nil)
	stmt(nil, [][]string{{"da3"}, {"db3"}, {"ds3"}})
	post := st2.WALStats()
	if post.FullPages <= preCkpt.FullPages {
		t.Fatal("no first-touch full images after the checkpoint")
	}
	if post.DeltaPages <= preCkpt.DeltaPages {
		t.Fatal("no delta records after the checkpoint")
	}
	journal := fs.Journal()
	st2.Discard() // crash

	for i := 1; i < len(states); i++ {
		if states[i].Equal(states[i-1]) {
			t.Fatalf("statement %d changed nothing", i)
		}
	}
	total := journal.End()
	if total < 2*storage.PageSize {
		t.Fatalf("journal too small (%d bytes) to exercise torn pages", total)
	}
	t.Logf("delta-era journal: %d ops, %d bytes (full=%d delta=%d pages logged)",
		len(journal), total, post.FullPages, post.DeltaPages)
	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		label := "delta " + c.String()
		state, err := loadStateErr(files, label, "R1")
		if err != nil {
			return err
		}
		got := state["R1"]
		for _, s := range states {
			if got.Equal(s) {
				return nil
			}
		}
		return fmt.Errorf("%s: recovered state is not a statement boundary", label)
	})
}

// TestCrashRecoveryDoubleReplay proves redo is idempotent end to end:
// every distinct crash state of a workload journal is recovered while
// recovery's own writes are journaled, and recovery itself is then
// crashed in every distinct state of ITS journal — mid-redo-write,
// between the data sync and the log truncation, inside the truncation.
// The second recovery must land on exactly the state the uninterrupted
// replay produced. Before page LSNs this held only because records
// were whole-page images; with delta records it holds because the LSN
// gate skips pages the first replay already published, so deltas never
// apply twice.
func TestCrashRecoveryDoubleReplay(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	def := testDef(t)

	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	rs, err := st.CreateRelation(setup, def)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 700)
	for i := range pad {
		pad[i] = 'r'
	}
	for i := 0; i < 6; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("%s-%d", pad, i)}, {"padclub"}, {fmt.Sprintf("pads%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// journal two statements (full images + deltas) and crash
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	base := fs.Record()
	for i := 0; i < 2; i++ {
		txn := st2.Begin()
		if err := rs2.Insert(txn, tupleOf([][]string{
			{fmt.Sprintf("yc%d", i)}, {fmt.Sprintf("yb%d", i)}, {fmt.Sprintf("ys%d", i)},
		}, def.Order)); err != nil {
			t.Fatal(err)
		}
		if err := st2.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	journal := fs.Journal()
	st2.Discard() // crash #1
	total := journal.End()
	t.Logf("workload journal: %d bytes", total)

	// the first-crash states, each at the cuts the sweep checks it at
	type crashed struct {
		c     crashfs.Cut
		files map[string][]byte
	}
	var mu sync.Mutex
	var outer []crashed
	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		mu.Lock()
		defer mu.Unlock()
		outer = append(outer, crashed{c, files})
		return nil
	})

	// Subtest k=K_reordered=R replays the states checked at cuts in R's
	// mode past the previous mark and up to K.
	start, cycles := time.Now(), atomic.Int64{}
	t.Cleanup(func() {
		t.Logf("double replay: %d first-crash checks, %d reopen-and-check cycles, %v",
			len(outer), cycles.Load(), time.Since(start).Round(time.Millisecond))
	})
	marks := []int64{0, total / 4, total / 2, 3 * total / 4, total}
	for i, k := range marks {
		for _, reordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("k=%d_reordered=%v", k, reordered), func(t *testing.T) {
				t.Parallel()
				for _, o := range outer {
					if o.c.Reordered != reordered || o.c.K > k || i > 0 && o.c.K <= marks[i-1] {
						continue
					}
					n, err := doubleReplay(o.c, o.files)
					cycles.Add(int64(n))
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// doubleReplay recovers files, the state a crash at c left, while
// journaling recovery's writes; then it crashes that recovery in every
// distinct state of its journal and demands each second recovery equal
// the first. It returns the reopen-and-check cycles it ran.
func doubleReplay(c crashfs.Cut, files map[string][]byte) (int, error) {
	rfs := crashfs.New(files)
	rbase := rfs.Record()
	rst, err := Open("db", Options{PoolPages: 8, OpenFile: rfs.Open, RemoveFile: rfs.Remove, CheckpointBytes: -1})
	if err != nil {
		return 0, fmt.Errorf("%v: recording replay failed: %v", c, err)
	}
	rjournal := rfs.Journal()
	rs, ok := rst.Rel("R1")
	if !ok {
		rst.Discard()
		return 0, fmt.Errorf("%v: relation R1 lost", c)
	}
	want, err := rs.Load()
	rst.Discard()
	if err != nil {
		return 0, fmt.Errorf("%v: load after the recording replay: %v", c, err)
	}
	stats, err := crashfs.Sweep(rbase, rjournal, func(rc crashfs.Cut, files map[string][]byte) error {
		label := fmt.Sprintf("%v, replay-crash %v", c, rc)
		got, err := loadStateErr(files, label, "R1")
		if err != nil {
			return err
		}
		if !got["R1"].Equal(want) {
			return fmt.Errorf("%s: double replay diverged from single replay", label)
		}
		return nil
	})
	return stats.Cycles, err
}
