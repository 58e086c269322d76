package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/storage/crashfs"
	"repro/internal/tuple"
)

// TestCommitInDoubtWindow pins docs/api.md's "Commit failure": a
// transaction whose commit fsync succeeded but whose data-file
// write-through fails, and fails again on the one retry, is rolled back
// in this process while its batch stays durable in the log — so a crash
// before the next checkpoint recovers the transaction as committed, and
// a crash after it recovers the pre-Begin state. failAll fails every
// data-file write of both attempts; with it off only the first write of
// each attempt fails and the rest of the batch reaches the file.
func TestCommitInDoubtWindow(t *testing.T) {
	for _, failAll := range []bool{true, false} {
		name := "first write of each attempt fails"
		if failAll {
			name = "every write fails"
		}
		t.Run(name, func(t *testing.T) { testCommitInDoubt(t, failAll) })
	}
}

func testCommitInDoubt(t *testing.T, failAll bool) {
	fsys := crashfs.New(nil)
	db, err := Open("db", WithFileSystem(fsys.Open, fsys.Remove), WithPoolPages(32), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	read := func(label string) map[string]*core.Relation {
		t.Helper()
		out := map[string]*core.Relation{}
		for _, name := range []string{"r1", "r2"} {
			rel, err := db.ReadRelation(context.Background(), name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			out[name] = rel
		}
		return out
	}
	same := func(a, b map[string]*core.Relation) bool {
		return a["r1"].Equal(b["r1"]) && a["r2"].Equal(b["r2"])
	}
	pre := read("pre-Begin")

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
	if same(pre, post) {
		t.Fatal("the transaction changed nothing")
	}

	// Every statement has run, so the data file's next writes are the
	// commit's write-through: one write per dirty page, after a log
	// append, once for the commit and once for its retry. The writes
	// after those are the rollback restoring pages, and succeed.
	injected := errors.New("injected data-file write failure")
	var writes [3]int // data-file writes seen per attempt (1-based)
	attempts, logged := 0, true
	fsys.FailWrite(func(name string) error {
		if name != "db" {
			logged = true
			return nil
		}
		if logged {
			attempts++
			logged = false
		}
		if attempts > 2 || (attempts == 2 && writes[2] == writes[1]) {
			return nil
		}
		writes[attempts]++
		if failAll || writes[attempts] == 1 {
			return injected
		}
		return nil
	})
	fsyncs := db.st.WALStats().Fsyncs
	err = tx.Commit()
	fsys.FailWrite(nil)
	if !errors.Is(err, storage.ErrWriteThroughFailed) {
		t.Fatalf("Commit error %v does not wrap ErrWriteThroughFailed", err)
	}
	if writes[1] < 2 || writes[2] != writes[1] {
		t.Fatalf("write-through wrote %d then %d pages; want the same multi-page batch twice", writes[1], writes[2])
	}
	if attempts != 2 {
		t.Fatalf("write-through was attempted %d times, want 2 (commit + one retry)", attempts)
	}
	if got := db.st.WALStats().Fsyncs - fsyncs; got != 2 {
		t.Fatalf("%d commit fsyncs, want 2: the batch must be durable in the log before each write-through", got)
	}
	inDoubt := fsys.Snapshot()

	// this process: rolled back
	if live := read("after failed commit"); !same(live, pre) {
		t.Fatal("live database does not read the pre-Begin state after the failed commit")
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatalf("live indexes after the failed commit: %v", err)
	}

	// a crash now: the log still holds the batch, recovery replays it
	if got := loadRels(t, inDoubt, "in-doubt crash image"); !same(got, post) {
		if same(got, pre) {
			t.Fatal("in-doubt crash image recovered the pre-Begin state; docs/api.md says the batch is replayed")
		}
		t.Fatal("in-doubt crash image recovered to neither side of the transaction")
	}

	// one successful checkpoint closes the window
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := loadRels(t, fsys.Snapshot(), "post-checkpoint crash image"); !same(got, pre) {
		t.Fatal("crash image after a checkpoint still contains the rolled-back batch")
	}
	if live := read("after checkpoint"); !same(live, pre) {
		t.Fatal("live database changed across the checkpoint")
	}
}
