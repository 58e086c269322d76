package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/tuple"
)

func txTestDef(name string) RelationDef {
	sch := schema.MustOf("Student", "Course", "Club")
	return RelationDef{
		Name: name, Schema: sch,
		Order: schema.MustPermOf(sch, "Course", "Club", "Student"),
	}
}

func row(ss ...string) tuple.Flat { return tuple.FlatOfStrings(ss...) }

// TestTxMultiStatementSingleFsync is the headline acceptance property:
// a transaction of ≥3 statements across ≥2 relations commits with
// exactly one fsync.
func TestTxMultiStatementSingleFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.nfrs")
	db, err := Open(path, WithPoolPages(16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
	}
	ws0, _ := db.WALStats()
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range []struct {
		rel string
		f   tuple.Flat
	}{
		{"r1", row("s1", "c1", "b1")},
		{"r1", row("s1", "c2", "b1")},
		{"r2", row("s2", "c1", "b2")},
		{"r2", row("s2", "c3", "b2")},
	} {
		ch, err := tx.Insert(stmt.rel, stmt.f)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if !ch {
			t.Fatalf("statement %d did not change the relation", i)
		}
	}
	mid, _ := db.WALStats()
	if mid.Fsyncs != ws0.Fsyncs {
		t.Fatalf("fsyncs before commit: %d", mid.Fsyncs-ws0.Fsyncs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ws1, _ := db.WALStats()
	if got := ws1.Fsyncs - ws0.Fsyncs; got != 1 {
		t.Fatalf("4 statements on 2 relations committed with %d fsyncs, want exactly 1", got)
	}
	// durable across reopen
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r1, err := db2.ReadRelation(context.Background(), "r1")
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExpansionSize() != 2 {
		t.Fatalf("r1 reopened with %d flat tuples, want 2", r1.ExpansionSize())
	}
}

// TestTxRollbackBitIdentical: a rolled-back transaction leaves both
// files byte-identical to the pre-Begin state and the live engine equal
// to the flat-set model, which never saw the transaction.
func TestTxRollbackBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rb.nfrs")
	db, err := Open(path, WithPoolPages(32))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seed := []tuple.Flat{
		row("s1", "c1", "b1"), row("s1", "c2", "b1"),
		row("s2", "c1", "b2"), row("s3", "c3", "b1"),
	}
	model := newFlatModel(txTestDef("r1")) // r2 holds the same flats
	model.InsertMany(seed)
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany(name, seed); err != nil {
			t.Fatal(err)
		}
	}
	// checkpoint so the WAL is empty and the data file quiescent
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// mixed inserts and deletes across both relations — all of it must
	// vanish (the workload fits existing pages, so even the file length
	// is untouched)
	for _, name := range []string{"r1", "r2"} {
		if _, err := tx.Insert(name, row("s9", "c9", "b9")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Delete(name, row("s1", "c1", "b1")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert(name, row("s2", "c7", "b2")); err != nil {
			t.Fatal(err)
		}
	}
	// the transaction sees its own writes
	mine, err := tx.ReadRelation(nil, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if mine.Equal(model.Canonical()) {
		t.Fatal("transaction does not see its own writes")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("data file changed across rolled-back transaction (%d -> %d bytes)", len(before), len(after))
	}
	if _, err := os.Stat(path + ".wal"); err == nil {
		// nothing but the 28-byte header may remain after the rollback
		if b, _ := os.ReadFile(path + ".wal"); len(b) > 28 {
			t.Fatalf("WAL grew across rolled-back transaction: %d bytes", len(b))
		}
	}
	// live equivalence, then across a reopen
	verify := func(d *Database, label string) {
		t.Helper()
		for _, name := range []string{"r1", "r2"} {
			model.check(t, d, name, label)
		}
	}
	verify(db, "live")
	// the engine keeps working after the rollback
	if _, err := db.Insert("r1", row("s5", "c5", "b5")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("r1", row("s5", "c5", "b5")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verify(db2, "reopened")
}

// TestTxRollbackDDL: creates and drops inside a rolled-back transaction
// leave no trace, live or across a reopen.
func TestTxRollbackDDL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ddl.nfrs")
	db, err := Open(path, WithPoolPages(16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(txTestDef("keep")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("keep", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Create(txTestDef("fresh")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("fresh", row("s2", "c2", "b2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Drop("keep"); err != nil {
		t.Fatal(err)
	}
	// invisible to the outside while open: "fresh" unknown, "keep" alive
	if _, err := db.Rel("fresh"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted create visible: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rel("fresh"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back create survived: %v", err)
	}
	rel, err := db.ReadRelation(nil, "keep")
	if err != nil {
		t.Fatalf("rolled-back drop stuck: %v", err)
	}
	if rel.Len() != 1 {
		t.Fatalf("keep has %d tuples, want 1", rel.Len())
	}
	// the name is reusable and the engine consistent across reopen
	if err := db.Create(txTestDef("fresh")); err != nil {
		t.Fatalf("create after rolled-back create: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rel, err := db2.ReadRelation(nil, "keep"); err != nil || rel.Len() != 1 {
		t.Fatalf("reopened keep: %v (len %d)", err, rel.Len())
	}
}

// TestTxCommitPublishesDDL: a committed transaction's create appears,
// its drop disappears, and both are durable.
func TestTxCommitPublishesDDL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pub.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(txTestDef("old")); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(nil)
	if err := tx.Create(txTestDef("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("new", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Drop("old"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rel("old"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("committed drop still visible: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rel, err := db2.ReadRelation(nil, "new"); err != nil || rel.Len() != 1 {
		t.Fatalf("reopened new: %v", err)
	}
	if _, err := db2.Rel("old"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped relation resurrected: %v", err)
	}
}

// TestCloseRollsBackOpenTx: Close is idempotent and rolls back (not
// wedges) a still-open transaction, whose handle then answers
// ErrTxDone.
func TestCloseRollsBackOpenTx(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v (want nil)", err)
	}
	if _, err := tx.Insert("r", row("s2", "c2", "b2")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("insert on rolled-back handle: %v (want ErrTxDone)", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit on rolled-back handle: %v (want ErrTxDone)", err)
	}
	// the uncommitted statement is gone
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel, err := db2.ReadRelation(nil, "r")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatalf("uncommitted statement survived Close: %d tuples", rel.Len())
	}
}

// TestTxDoneAfterCommitAndRollback: every method of a finished handle
// answers ErrTxDone, including double Commit/Rollback.
func TestTxDoneAfterCommitAndRollback(t *testing.T) {
	db := New()
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(nil)
	if _, err := tx.Insert("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
	if _, err := tx.ReadRelation(nil, "r"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("read after commit: %v", err)
	}
	tx2, _ := db.Begin(nil)
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Delete("r", row("s1", "c1", "b1")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("delete after rollback: %v", err)
	}
}

// TestTxMemoryRollback: rolling back a transaction on an in-memory
// database returns the relation to the model's V_P of the seed.
func TestTxMemoryRollback(t *testing.T) {
	db := New()
	defer db.Close()
	seed := []tuple.Flat{row("s1", "c1", "b1"), row("s1", "c2", "b1"), row("s2", "c1", "b2")}
	model := newFlatModel(txTestDef("r"))
	model.InsertMany(seed)
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMany("r", seed); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(nil)
	if _, err := tx.Insert("r", row("s3", "c3", "b3")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.InsertMany("r", []tuple.Flat{row("s4", "c4", "b4"), row("s4", "c5", "b4")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	model.check(t, db, "r", "after rollback")
	// the resident canonical form was reset from the heap, too
	r, _ := db.Rel("r")
	if !r.Relation().Equal(model.Canonical()) {
		t.Fatalf("resident form after rollback is\n%v", r.Relation())
	}
}

// TestTxConflictWaitDie: a younger transaction already holding a latch
// is refused (ErrTxConflict) instead of deadlocking when it wants a
// latch an older transaction holds; the transaction stays usable and
// rolls back cleanly.
func TestTxConflictWaitDie(t *testing.T) {
	db := New()
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
	}
	older, _ := db.Begin(nil)
	younger, _ := db.Begin(nil)
	if _, err := older.Insert("r1", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if _, err := younger.Insert("r2", row("s2", "c2", "b2")); err != nil {
		t.Fatal(err)
	}
	// younger holds r2 and wants r1 (held by older) → must die, not wait
	if _, err := younger.Insert("r1", row("s3", "c3", "b3")); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("younger-with-latch waiting on older: %v (want ErrTxConflict)", err)
	}
	// the refused statement did not poison the transaction
	if _, err := younger.Insert("r2", row("s4", "c4", "b4")); err != nil {
		t.Fatalf("transaction unusable after conflict: %v", err)
	}
	if err := younger.Rollback(); err != nil {
		t.Fatal(err)
	}
	// with younger gone, older proceeds onto r2
	if _, err := older.Insert("r2", row("s5", "c5", "b5")); err != nil {
		t.Fatal(err)
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.ReadRelation(nil, "r2")
	if rel.ExpansionSize() != 1 {
		t.Fatalf("r2 = %d flat tuples, want only older's 1", rel.ExpansionSize())
	}
}

// TestTxContext: a cancelled context fails statements, cancels scans at
// page granularity, and turns Commit into a rollback.
func TestTxContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctx.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := tx.Insert("r", row("s2", "c2", "b2")); !errors.Is(err, context.Canceled) {
		t.Fatalf("statement under cancelled ctx: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, context.Canceled) {
		t.Fatalf("commit under cancelled ctx: %v", err)
	}
	// the whole transaction rolled back
	rel, err := db.ReadRelation(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatalf("cancelled transaction committed %d tuples", rel.Len())
	}
	// cancelled scans stop before touching the pool
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := db.ReadRelation(cancelled, "r"); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan under cancelled ctx: %v", err)
	}
}

// TestReadOnly: WithReadOnly rejects every mutation path with
// ErrReadOnly and still serves reads.
func TestReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.nfrs")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false")
	}
	if _, err := ro.Insert("r", row("s2", "c2", "b2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert: %v", err)
	}
	if err := ro.Create(txTestDef("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create: %v", err)
	}
	if err := ro.Drop("r"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("drop: %v", err)
	}
	if err := ro.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("flush: %v", err)
	}
	tx, err := ro.Begin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete("r", row("s1", "c1", "b1")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("tx delete: %v", err)
	}
	if rel, err := tx.ReadRelation(nil, "r"); err != nil || rel.Len() != 1 {
		t.Fatalf("tx read: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rel, err := ro.ReadRelation(nil, "r")
	if err != nil || rel.ExpansionSize() != 1 {
		t.Fatalf("read-only read: %v", err)
	}
	// a read-only open of a clean file never mutates it — not even the
	// orphan sweep runs — and leaves no WAL sidecar behind
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(pristine) != string(after) {
		t.Fatalf("read-only open changed the file (%d -> %d bytes)", len(pristine), len(after))
	}
	if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
		t.Fatalf("read-only open left a WAL sidecar: %v", err)
	}
}

// TestReadRelationSnapshot: the returned relation is the caller's to
// mutate — a writer scribbling on it races with nothing (run under
// -race), and the engine's canonical state is unaffected.
func TestReadRelationSnapshot(t *testing.T) {
	db := New()
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rel, err := db.ReadRelation(nil, "r")
				if err != nil {
					t.Error(err)
					return
				}
				// mutate the snapshot while other goroutines write the
				// engine — must be race-free
				rel.Add(tuple.FromFlat(row("zz", fmt.Sprintf("g%d_%d", g, i), "zz")))
				if _, err := db.Insert("r", row(fmt.Sprintf("s%d", g), fmt.Sprintf("c%d", i), "b1")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rel, _ := db.ReadRelation(nil, "r")
	for i := 0; i < rel.Len(); i++ {
		if rel.Tuple(i).Set(0).Contains(row("zz", "x", "zz")[0]) {
			t.Fatal("snapshot mutation leaked into the engine")
		}
	}
}

// TestDropWaitsForOpenTx: dropping a relation a live transaction holds
// must park until that transaction finishes (not spin, not deadlock,
// not fail) and then succeed.
func TestDropWaitsForOpenTx(t *testing.T) {
	db := New()
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(nil)
	if _, err := tx.Insert("r", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() { dropped <- db.Drop("r") }()
	select {
	case err := <-dropped:
		t.Fatalf("drop finished with %v while the transaction still held the latch", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dropped:
		if err != nil {
			t.Fatalf("drop after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drop still blocked after the holding transaction committed")
	}
	if _, err := db.Rel("r"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("relation survived the drop: %v", err)
	}
}

// TestTxStressInterleaved is the -race stress: 8 clients interleaving
// Begin / statements / Commit / Rollback on private and shared
// relations, with wait-die retries, must equal the flat-set model of
// exactly the committed transactions — live and across a reopen.
func TestTxStressInterleaved(t *testing.T) {
	const clients, txsPerClient, stmtsPerTx = 8, 12, 3
	path := filepath.Join(t.TempDir(), "stress.nfrs")
	db, err := Open(path, WithPoolPages(48))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	names := make([]string, clients)
	for c := range names {
		names[c] = fmt.Sprintf("p%d", c)
	}
	models := map[string]*flatModel{}
	for _, name := range append(append([]string{}, names...), "shared") {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
		models[name] = newFlatModel(txTestDef(name))
	}
	// commits(c, i): deterministic commit/rollback decision
	commits := func(c, i int) bool { return (c+i)%3 != 0 }
	rowsFor := func(c, i int) []tuple.Flat {
		out := make([]tuple.Flat, stmtsPerTx)
		for s := 0; s < stmtsPerTx; s++ {
			out[s] = row(
				fmt.Sprintf("s%d_%d", c, (i*stmtsPerTx+s)%5),
				fmt.Sprintf("c%d_%d", c, i*stmtsPerTx+s),
				fmt.Sprintf("b%d", c%3))
		}
		return out
	}
	// the models hold the flats of exactly the committed txs
	for c := 0; c < clients; c++ {
		for i := 0; i < txsPerClient; i++ {
			if !commits(c, i) {
				continue
			}
			rows := rowsFor(c, i)
			models[names[c]].InsertMany(rows)
			if i%2 == 0 {
				models["shared"].Insert(rows[0])
			}
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < txsPerClient; i++ {
				rows := rowsFor(c, i)
				for {
					err := func() error {
						tx, err := db.Begin(context.Background())
						if err != nil {
							return err
						}
						// shared first: acquired while holding nothing, so
						// the wait is always legal under wait-die
						if i%2 == 0 {
							if _, err := tx.Insert("shared", rows[0]); err != nil {
								tx.Rollback()
								return err
							}
						}
						for _, f := range rows {
							if _, err := tx.Insert(names[c], f); err != nil {
								tx.Rollback()
								return err
							}
						}
						if commits(c, i) {
							return tx.Commit()
						}
						return tx.Rollback()
					}()
					if err == nil {
						break
					}
					if errors.Is(err, ErrTxConflict) {
						continue
					}
					errCh <- fmt.Errorf("client %d tx %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	verify := func(d *Database, label string) {
		t.Helper()
		for name, m := range models {
			m.check(t, d, name, label)
		}
	}
	verify(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, WithPoolPages(48))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verify(db2, "reopened")
}

// TestTxRejectedStatementKeepsTxUsable: a statement the store rejects
// in the middle of a multi-statement Tx is repaired in place — the
// statements before and after it still commit (or roll back) as one
// unit, live and across a reopen.
func TestTxRejectedStatementKeepsTxUsable(t *testing.T) {
	def := RelationDef{Name: "r", Schema: schema.MustOf("A", "B")}
	for _, commit := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "rej.nfrs")
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Create(def); err != nil {
			t.Fatal(err)
		}
		model := newFlatModel(def)
		tx, _ := db.Begin(context.Background())
		if ch, err := tx.Insert("r", row("a1", "b1")); err != nil || !ch {
			t.Fatalf("first statement: %v %v", ch, err)
		}
		_, err = tx.Insert("r", row(strings.Repeat("x", 5000), "b9"))
		if err == nil || !strings.Contains(err.Error(), "can never fit a page") {
			t.Fatalf("oversized statement: %v", err)
		}
		if ch, err := tx.Insert("r", row("a2", "b2")); err != nil || !ch {
			t.Fatalf("statement after the rejected one: %v %v", ch, err)
		}
		if commit {
			err = tx.Commit()
			model.InsertMany([]tuple.Flat{row("a1", "b1"), row("a2", "b2")})
		} else {
			err = tx.Rollback()
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, reopen := range []bool{false, true} {
			if reopen {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(path); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.VerifyIndexes(); err != nil {
				t.Fatal(err)
			}
			model.check(t, db, "r", fmt.Sprintf("commit=%v reopen=%v", commit, reopen))
		}
		db.Close()
	}
}

// TestNoStatementStateOutlivesTx: a shard's storage transaction and
// first write-through error belong to the Tx holding its latch. Both
// are gone after Commit and after Rollback; with no Tx attached a
// write-through is refused, not made; and after the first error of a
// statement nothing more is written.
func TestNoStatementStateOutlivesTx(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "own.nfrs"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(shardedDef("r", 3)); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Rel("r")
	for _, commit := range []bool{true, false} {
		tx, _ := db.Begin(context.Background())
		for i := 0; i < 9; i++ {
			if ch, err := tx.Insert("r", row(fmt.Sprintf("s%d-%v", i, commit), "c1", "b1")); err != nil || !ch {
				t.Fatal(ch, err)
			}
		}
		if commit {
			err = tx.Commit()
		} else {
			err = tx.Rollback()
		}
		if err != nil || len(tx.touched) < 2 {
			t.Fatalf("commit=%v: err %v, %d shards touched", commit, err, len(tx.touched))
		}
		for _, sh := range r.shards {
			if sh.stx != nil || sh.sinkErr != nil {
				t.Fatalf("commit=%v: shard %d keeps stx=%v sinkErr=%v", commit, sh.ord, sh.stx, sh.sinkErr)
			}
		}
	}

	heapAndLog := func() (int, int) {
		hs, err := r.rs.HeapStats()
		ws, _ := db.WALStats()
		if err != nil {
			t.Fatal(err)
		}
		return hs.LiveRecords, ws.Batches
	}
	stored, fresh := row("s0-true", "c1", "b1"), row("s0-true", "c2", "b2")
	sh := r.shardFor(stored)
	recs, batches := heapAndLog()
	sh.maint.Load().Insert(fresh)
	if sh.sinkErr == nil || !strings.Contains(sh.sinkErr.Error(), "outside a transaction") {
		t.Fatalf("write-through with no Tx attached: %v", sh.sinkErr)
	}
	if r2, b2 := heapAndLog(); r2 != recs || b2 != batches {
		t.Fatalf("refused write reached the store: %d→%d records, %d→%d batches", recs, r2, batches, b2)
	}
	sh.maint.Load().Delete(fresh) // memory back in step with the heap
	sh.sinkErr = nil

	tx, _ := db.Begin(context.Background())
	if ch, err := tx.Delete("r", stored); err != nil || !ch {
		t.Fatal(ch, err)
	}
	recs, _ = heapAndLog()
	sh.TupleAdded(tuple.FromFlat(row(strings.Repeat("x", 5000), "c1", "b1")))
	first := sh.sinkErr
	sh.TupleAdded(tuple.FromFlat(fresh))
	if r2, _ := heapAndLog(); first == nil || sh.sinkErr != first || r2 != recs {
		t.Fatalf("after the first error %v: sinkErr %v, %d→%d records", first, sh.sinkErr, recs, r2)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}
