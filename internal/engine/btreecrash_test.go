package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage/crashfs"
	"repro/internal/tuple"
)

// TestBTreeSplitCrashSweep aims crash injection at the range index's
// structural mutations: with the node fan-out clamped to its minimum,
// ONE transaction of inserts forces B+tree leaf splits AND inner splits
// (height growth), and a crash in every distinct state of the journal
// must recover the index onto a transaction boundary — verified against the
// heap-scan oracle by loadRelsErr (VerifyIndexes walks the tree, and an
// unbounded ScanFixedRange must equal the recovered heap content).
func TestBTreeSplitCrashSweep(t *testing.T) {
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

	// base: both relations (the loader reads r1 and r2), r1 seeded with
	// a few tuples so the first clamped insert already splits a leaf
	db := open()
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
	}
	seed := []tuple.Flat{
		row("t02", "c1", "b1"), row("t04", "c1", "b1"), row("t06", "c1", "b1"),
	}
	if _, err := db.InsertMany("r1", seed); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r2", row("s1", "c1", "b1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pre := loadRels(t, fsys.Snapshot(), "reference pre")
	db2 := open()
	defer db2.Close()
	// clamp the fan-out so a dozen keys build a three-level tree
	db2.mu.RLock()
	ss := db2.rels["r1"].shards[0].ss
	db2.mu.RUnlock()
	ss.SetRangeIndexMaxEntries(2)
	before, err := db2.IndexPageStats()
	if err != nil {
		t.Fatal(err)
	}

	base := fsys.Record()
	tx, err := db2.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 5 fixed atoms interleaved around the seed keys: with maxEntries=2
	// the leaves split immediately and the root inner overflows,
	// pushing the tree to height >= 3 inside this one tx (kept minimal
	// — every extra page image in the journal multiplies the number of
	// injection offsets the full sweep must replay)
	for i := 0; i < 5; i++ {
		if _, err := tx.Insert("r1", row(fmt.Sprintf("t%02d", i), "c9", "b9")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	journal := fsys.Journal()
	post := loadRels(t, fsys.Snapshot(), "reference post")
	if pre["r1"].Equal(post["r1"]) {
		t.Fatal("transaction changed nothing; harness is vacuous")
	}

	// the transaction must actually have split leaves AND inners: the
	// meta page plus a root and at least two child inners means the
	// inner level itself split (height >= 3)
	after, err := db2.IndexPageStats()
	if err != nil {
		t.Fatal(err)
	}
	if after["r1"].BTreeLeaf < 4 || after["r1"].BTreeInner < 4 {
		t.Fatalf("tx did not force both split kinds: before %+v after %+v", before["r1"], after["r1"])
	}

	t.Logf("journal: %d ops; btree pages %+v -> %+v", len(journal), before["r1"], after["r1"])
	sweepTx(t, base, journal, pre, post)
}
