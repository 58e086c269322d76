package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage/crashfs"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/value"
)

// TestCommitFailStop pins docs/api.md's "Commit failure": a transaction
// whose log fsync succeeded but whose data-file write-through failed
// fails the handle. Commit returns ErrFailed and rolls nothing back;
// every later write, read and checkpoint returns it too, never
// ErrCorrupt, and neither file is written again; Close keeps the log;
// and a crash image taken after a later write, like the reopen, holds
// the whole transaction. firstOnly fails only the first data-file write
// after each of the next two log appends (a commit and a retry of it)
// and lets every other write succeed, so the handle refuses even though
// the disk works again.
func TestCommitFailStop(t *testing.T) {
	for _, firstOnly := range []bool{true, false} {
		name := "every write fails"
		if firstOnly {
			name = "first write of each attempt fails"
		}
		t.Run(name, func(t *testing.T) { testCommitFailStop(t, firstOnly) })
	}
}

func testCommitFailStop(t *testing.T, firstOnly bool) {
	fsys := crashfs.New(nil)
	open := func() *Database {
		t.Helper()
		db, err := Open("db", WithFileSystem(fsys.Open, fsys.Remove), WithPoolPages(32), WithCheckpointBytes(-1))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	seed := []tuple.Flat{row("s1", "c1", "b1"), row("s1", "c2", "b1"), row("s2", "c1", "b2")}
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany(name, seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	same := func(a, b map[string]*core.Relation) bool {
		return a["r1"].Equal(b["r1"]) && a["r2"].Equal(b["r2"])
	}

	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		rel string
		f   tuple.Flat
	}{{"r1", row("s9", "c9", "b9")}, {"r2", row("s2", "c4", "b2")}, {"r2", row("s7", "c7", "b7")}} {
		if _, err := tx.Insert(s.rel, s.f); err != nil {
			t.Fatal(err)
		}
	}
	post := map[string]*core.Relation{}
	for _, name := range []string{"r1", "r2"} {
		if post[name], err = tx.ReadRelation(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}

	// Every statement has run, so the data file's next write is the
	// commit's write-through, after the log fsync.
	attempts, logged := 0, false
	fsys.FailWrite(func(name string) error {
		if name != "db" {
			logged = true
			return nil
		}
		first := logged
		if logged {
			attempts, logged = attempts+1, false
		}
		if firstOnly && (!first || attempts > 2) {
			return nil
		}
		return errors.New("injected data-file write failure")
	})
	err = tx.Commit()
	if !errors.Is(err, ErrFailed) || strings.Contains(err.Error(), "rolled back") {
		t.Errorf("Commit with a failed write-through: %v; want ErrFailed, not rolled back", err)
	}
	fsys.Record()

	// the later write fails, so a crash now recovers the whole transaction
	// (a rolled-back commit whose batch stayed in the log recovered half
	// of it: the later write's r1 pages, this batch's r2 pages)
	if _, err := db.Insert("r1", row("s5", "c5", "b5")); !errors.Is(err, ErrFailed) || errors.Is(err, ErrCorrupt) {
		t.Errorf("insert after the failed commit: %v, want ErrFailed", err)
	}
	if got, err := loadRelsErr(fsys.Snapshot(), "crash image"); err != nil || !same(got, post) {
		t.Fatalf("the crash image after the failed commit is not the transaction's post state: %v", describe(got, err))
	}
	tx2, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		call string
		err  error
	}{
		{"Tx.Insert", errOf2(tx2.Insert("r2", row("s6", "c6", "b6")))},
		{"ReadRelation", errOf2(db.ReadRelation(context.Background(), "r1"))},
		{"Flush", db.Flush()},
	} {
		if !errors.Is(c.err, ErrFailed) || errors.Is(c.err, ErrCorrupt) {
			t.Errorf("%s after the failed commit: %v, want ErrFailed", c.call, c.err)
		}
	}
	tx2.Rollback()
	if err := db.Close(); !errors.Is(err, ErrFailed) {
		t.Errorf("Close of the failed handle: %v, want ErrFailed", err)
	}
	if j := fsys.Journal(); len(j) != 0 {
		t.Errorf("the failed handle wrote, synced or truncated %d more times", len(j))
	}
	if _, ok := fsys.Snapshot()["db.wal"]; !ok {
		t.Fatal("Close of the failed handle deleted the log")
	}
	fsys.FailWrite(nil)

	db = open()
	defer db.Close()
	for name, want := range post {
		got, err := db.ReadRelation(context.Background(), name)
		if err != nil || !got.Equal(want) {
			t.Fatalf("reopen: %s is not the transaction's post state (%v)", name, err)
		}
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitFailStopConcurrent: eight writers, half autocommit inserts
// and half 3-statement transactions, each on a shard of its own, while
// the first commit's log fsync is held and every data-file write fails
// from then on. Every writer returns; after the reopen every write
// that returned nil is there, and each transaction is there whole or
// not at all.
func TestCommitFailStopConcurrent(t *testing.T) {
	const writers, perTx = 8, 3
	fsys, gate := crashfs.New(nil), crashfs.NewGate()
	db := openGated(t, fsys, gate)
	if err := db.Create(shardedDef("hot", writers)); err != nil {
		t.Fatal(err)
	}
	// writer w's rows: one student on shard w; writers ≥ writers/2 run
	// them as one transaction, the rest as one autocommit insert
	rows := make([][]tuple.Flat, writers)
	for w := range rows {
		student := ""
		for j := 0; student == "" || store.ShardOfAtom(value.NewString(student), writers) != w; j++ {
			student = fmt.Sprintf("w%d-%d", w, j)
		}
		n := 1
		if w >= writers/2 {
			n = perTx
		}
		for j := 0; j < n; j++ {
			rows[w] = append(rows[w], row(student, fmt.Sprintf("c%d", j), "b1"))
		}
	}
	// prepare runs writer w's statements up to its commit and returns
	// the call that commits
	prepare := func(w int) func() error {
		if len(rows[w]) == 1 {
			return func() error { return errOf2(db.Insert("hot", rows[w][0])) }
		}
		tx, err := db.Begin(context.Background())
		if err != nil {
			return func() error { return err }
		}
		if _, err := tx.InsertMany("hot", rows[w]); err != nil {
			tx.Rollback()
			return func() error { return err }
		}
		return tx.Commit
	}

	errs := make([]error, writers)
	ready := make(chan struct{})
	var wg sync.WaitGroup
	start := func(w int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			commit := prepare(w)
			ready <- struct{}{}
			errs[w] = commit()
		}()
	}
	gate.Armed.Store(true)
	start(writers - 1)
	<-ready
	<-gate.Entered // a transaction's commit holds the log fsync
	for w := 0; w < writers-1; w++ {
		start(w)
	}
	for w := 0; w < writers-1; w++ {
		<-ready // queued behind it, or about to
	}
	fsys.FailWrite(func(name string) error {
		if name == "db" {
			return errors.New("injected data-file write failure")
		}
		return nil
	})
	gate.Armed.Store(false)
	gate.Release <- struct{}{}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a writer never returned after the failed write-through")
	}
	if !errors.Is(errs[writers-1], ErrFailed) {
		t.Fatalf("the held commit: %v, want ErrFailed", errs[writers-1])
	}
	for w, err := range errs {
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Errorf("writer %d: %v, want nil or ErrFailed", w, err)
		}
	}
	if err := db.Close(); !errors.Is(err, ErrFailed) {
		t.Errorf("Close of the failed handle: %v, want ErrFailed", err)
	}
	fsys.FailWrite(nil)

	db = openGated(t, fsys, gate)
	defer db.Close()
	got, err := db.ReadRelation(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	for _, f := range got.Expand() {
		stored[f.Key()] = true
	}
	for w, fs := range rows {
		n := 0
		for _, f := range fs {
			if stored[f.Key()] {
				n++
			}
		}
		if errs[w] == nil && n != len(fs) || n != 0 && n != len(fs) {
			t.Errorf("writer %d (%v): %d of its %d rows after the reopen", w, errs[w], n, len(fs))
		}
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWriteThroughRefusesCommit: a statement in a Tx whose page
// allocation fails, as on a full disk, passed the store's check and may
// have written part of its tuples, so it makes the transaction
// uncommittable, even though the disk works again by the time of the
// commit. Commit returns the write-through error and rolls back, and
// the 200 rows committed before Begin are all there, live and after a
// reopen. A pipeline batch fails the same way: every op is acked with
// the error.
func TestFailedWriteThroughRefusesCommit(t *testing.T) {
	var seed, extra []tuple.Flat
	for i := 0; i < 200; i++ {
		seed = append(seed, row(fmt.Sprintf("s%03d", i), fmt.Sprintf("c%d-%s", i%10, strings.Repeat("c", 150)), fmt.Sprintf("b%d", i%4)))
	}
	for i := 0; i < 20; i++ {
		extra = append(extra, row(fmt.Sprintf("new%02d-%s", i, strings.Repeat("x", 200)), "c1", "b1"))
	}
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			fsys := crashfs.New(nil)
			open := func() *Database {
				t.Helper()
				db, err := Open("db", WithFileSystem(fsys.Open, fsys.Remove), WithCheckpointBytes(-1))
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			if err := db.Create(txTestDef("r")); err != nil {
				t.Fatal(err)
			}
			tx, err := db.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.InsertMany("r", seed); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// data-file writes fail until the next log write, which only a
			// commit makes (no-steal)
			failing := true
			fsys.FailWrite(func(name string) error {
				if name != "db" {
					failing = false
				} else if failing {
					return errors.New("injected")
				}
				return nil
			})
			if pipelined {
				r, _ := db.Rel("r")
				batch := make([]*pipeOp, len(extra))
				for i, f := range extra {
					batch[i] = &pipeOp{f: f, insert: true, done: make(chan struct{})}
				}
				db.applyBatch(r.shards[0], batch)
				for i, op := range batch {
					if op.err == nil || !strings.Contains(op.err.Error(), "write-through failed") {
						t.Errorf("op %d of the batch: %v, want the write-through error", i, op.err)
						break
					}
				}
			} else {
				if tx, err = db.Begin(context.Background()); err != nil {
					t.Fatal(err)
				}
				var stmtErr error
				for _, f := range extra {
					if _, stmtErr = tx.Insert("r", f); stmtErr != nil {
						break
					}
				}
				if stmtErr == nil || !strings.Contains(stmtErr.Error(), "write-through failed") {
					t.Fatalf("no statement failed its write-through: %v", stmtErr)
				}
				if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "write-through failed") {
					t.Errorf("Commit after a failed write-through: %v, want the write-through error", err)
				}
			}
			fsys.FailWrite(nil)
			want := core.MustFromFlats(txTestDef("r").Schema, seed)
			for _, stage := range []string{"live", "reopened"} {
				got, err := db.ReadRelation(context.Background(), "r")
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if got.ExpansionSize() != len(seed) || !got.EquivalentTo(want) {
					t.Fatalf("%s: %d of the %d committed rows", stage, got.ExpansionSize(), len(seed))
				}
				if err := db.VerifyIndexes(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if err := db.Close(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if stage == "live" {
					db = open()
				}
			}
		})
	}
}

// TestFailedCheckpointFailsPool: an automatic checkpoint that fails
// after its commit's batch is durable and published (here the log
// reset's header rewrite, the first log write after the commit's
// data-file write) fails the pool instead of undoing the commit. Commit
// returns ErrFailed and rolls nothing back, so the resident form holds
// the batch, and a reopen replays it from the log.
func TestFailedCheckpointFailsPool(t *testing.T) {
	fsys := crashfs.New(nil)
	open := func() *Database {
		t.Helper()
		db, err := Open("db", WithFileSystem(fsys.Open, fsys.Remove), WithCheckpointBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	rows := []tuple.Flat{row("s1", "c1", "b1"), row("s2", "c2", "b2")}
	if _, err := db.Insert("r", rows[0]); err != nil {
		t.Fatal(err)
	}
	wroteData := false
	fsys.FailWrite(func(name string) error {
		if name == "db" {
			wroteData = true
		} else if wroteData {
			return errors.New("injected")
		}
		return nil
	})
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("r", rows[1]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Commit whose checkpoint failed: %v, want ErrFailed", err)
	}
	fsys.FailWrite(nil)
	r, _ := db.Rel("r")
	if n := r.Relation().ExpansionSize(); n != len(rows) {
		t.Fatalf("the resident form holds %d of the %d committed rows: the commit was rolled back", n, len(rows))
	}
	if err := db.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Close of the failed handle: %v, want ErrFailed", err)
	}
	db = open()
	defer db.Close()
	got, err := db.ReadRelation(context.Background(), "r")
	if err != nil || !got.EquivalentTo(core.MustFromFlats(txTestDef("r").Schema, rows)) {
		t.Fatalf("after the reopen: %v (%v), want the %d committed rows", got, err, len(rows))
	}
}

// describe names each relation's flat rows, or the error.
func describe(rels map[string]*core.Relation, err error) string {
	if err != nil {
		return err.Error()
	}
	var out []string
	for _, name := range []string{"r1", "r2"} {
		var keys []string
		for _, f := range rels[name].Expand() {
			keys = append(keys, f.Key())
		}
		out = append(out, fmt.Sprintf("%s = %v", name, keys))
	}
	return strings.Join(out, "; ")
}

func errOf2[T any](_ T, err error) error { return err }
