package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/storage/crashfs"
	"repro/internal/tuple"
)

// This file is the engine-level crash-injection harness for
// multi-statement transactions: the whole database lives in a crashfs
// file system that journals every write, ONE transaction of several
// statements across TWO relations commits as one merged WAL group, and
// crashfs.Sweep re-creates every distinct state a crash in the journal
// can leave (in-order and reordered modes). Recovery must always land
// on a whole-TRANSACTION boundary: both relations together are either
// the pre-Begin state or the committed state — never a mix, never a
// mid-statement form. (The store-level harness in internal/store
// covers per-statement and merged-group tearing; this one pins the
// engine's Tx bracketing to the same guarantee.)

// TestTxCrashRecoveryEveryOffset: a 4-statement transaction on two
// relations commits as one WAL group; a crash in every distinct state
// of the journal (both replay modes) must recover BOTH relations on the
// same side of the transaction boundary with every page checksum-valid.
func TestTxCrashRecoveryEveryOffset(t *testing.T) {
	fsys := crashfs.New(nil)
	open := func() *Database {
		t.Helper()
		db, err := Open("db",
			WithFileSystem(fsys.Open, fsys.Remove),
			WithPoolPages(8), WithCheckpointBytes(-1))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	// base: two relations with committed seed data, cleanly closed
	db := open()
	seed := []tuple.Flat{
		row("s1", "c1", "b1"), row("s1", "c2", "b1"), row("s2", "c1", "b2"),
	}
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany(name, seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// reference states: pre = the seed; post = seed + the transaction
	pre := loadRels(t, fsys.Snapshot(), "reference pre")
	db2 := open()
	defer db2.Close()
	// base = the files at recording start; every crash state is the
	// journal's prefix replayed over it
	base := fsys.Record()
	tx, err := db2.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stmts := []struct {
		rel    string
		f      tuple.Flat
		insert bool
	}{
		{"r1", row("s9", "c9", "b9"), true},
		{"r1", row("s1", "c1", "b1"), false},
		{"r2", row("s2", "c4", "b2"), true},
		{"r2", row("s7", "c7", "b7"), true},
	}
	for i, s := range stmts {
		var err error
		if s.insert {
			_, err = tx.Insert(s.rel, s.f)
		} else {
			_, err = tx.Delete(s.rel, s.f)
		}
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	journal := fsys.Journal()
	post := loadRels(t, fsys.Snapshot(), "reference post")
	if pre["r1"].Equal(post["r1"]) || pre["r2"].Equal(post["r2"]) {
		t.Fatal("transaction changed nothing; harness is vacuous")
	}
	sweepTx(t, base, journal, pre, post)
}

// sweepTx reopens every distinct crash state of journal over base and
// demands recovery land r1 and r2 together on the pre or the post side
// of the journaled transaction, with indexes and checksums clean.
func sweepTx(t *testing.T, base map[string][]byte, journal crashfs.Journal, pre, post map[string]*core.Relation) {
	t.Helper()
	if len(journal) == 0 {
		t.Fatal("empty journal")
	}
	stats, err := crashfs.Sweep(base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		got, err := loadRelsErr(files, c.String())
		if err != nil {
			return err
		}
		preSide := got["r1"].Equal(pre["r1"]) && got["r2"].Equal(pre["r2"])
		postSide := got["r1"].Equal(post["r1"]) && got["r2"].Equal(post["r2"])
		if !preSide && !postSide {
			return fmt.Errorf("%v: recovery not on a transaction boundary:\nr1 %v\nr2 %v", c, got["r1"], got["r2"])
		}
		return nil
	})
	t.Logf("sweep: %v", stats)
	if err != nil {
		t.Fatal(err)
	}
}

// loadRels opens the database in the given filesystem state (running
// recovery), loads r1 and r2, verifies the durable indexes against the
// heap oracle, and checks every referenced page is checksum-valid.
func loadRels(t *testing.T, files map[string][]byte, label string) map[string]*core.Relation {
	t.Helper()
	out, err := loadRelsErr(files, label)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func loadRelsErr(files map[string][]byte, label string) (map[string]*core.Relation, error) {
	crashed := crashfs.New(files)
	// the verification open gets a roomy pool: recovery correctness
	// cannot depend on pool size (the writer side and the storage-layer
	// sweeps keep exercising redo under 8 pages), and the per-offset
	// index verification walks every tree repeatedly — through a tiny
	// pool that is thousands of checksummed re-reads per offset
	db, err := Open("db",
		WithFileSystem(crashed.Open, crashed.Remove),
		WithPoolPages(128), WithCheckpointBytes(-1))
	if err != nil {
		return nil, fmt.Errorf("%s: recovery failed: %v", label, err)
	}
	out := make(map[string]*core.Relation, 2)
	for _, name := range []string{"r1", "r2"} {
		rel, err := db.ReadRelation(context.Background(), name)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("%s: load %s: %v", label, name, err)
		}
		out[name] = rel
		// the recovered B+tree must answer an unbounded range scan with
		// exactly the heap's canonical tuples
		if info, err := db.IndexInfo(name); err == nil && info.Shards == 1 {
			byIdx, _, err := db.ScanFixedRange(name, nil, nil)
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("%s: range scan of recovered %s: %v", label, name, err)
			}
			if !byIdx.Equal(rel) {
				db.Close()
				return nil, fmt.Errorf("%s: recovered B+tree of %s disagrees with heap scan", label, name)
			}
		}
	}
	// recovery must land heap and index on the same boundary
	if err := db.VerifyIndexes(); err != nil {
		db.Close()
		return nil, fmt.Errorf("%s: index diverged from heap oracle: %v", label, err)
	}
	ref, err := db.st.ReferencedPages()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("%s: walking recovered chains: %v", label, err)
	}
	db.Close()
	if err := crashed.CheckPages("db", ref); err != nil {
		return nil, fmt.Errorf("%s: %v", label, err)
	}
	return out, nil
}
