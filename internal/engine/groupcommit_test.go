package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/storage/syncgate"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/value"
)

// openGated opens "db" on fsys behind gate (the tests that need commits
// to merge hold the log's fsync instead of timing a real one), with
// manual checkpoints only: a checkpoint's log reset is an fsync too.
func openGated(t *testing.T, fsys *txFS, gate *syncgate.Gate) *Database {
	t.Helper()
	db, err := Open("db", WithFileSystem(gate.Open(fsys.open), fsys.remove), WithPoolPages(128), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkLiveAndReopened holds relation name of db, and its indexes, to
// the flat-set model of flats; then closes db and holds the reopened
// file to the same.
func checkLiveAndReopened(t *testing.T, fsys *txFS, gate *syncgate.Gate, db *Database, name string, flats []tuple.Flat) {
	t.Helper()
	model := newFlatModel(txTestDef(name))
	model.InsertMany(flats)
	for _, stage := range []string{"live", "reopened"} {
		model.check(t, db, name, stage)
		if err := db.VerifyIndexes(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if stage == "live" {
			db = openGated(t, fsys, gate)
		}
	}
}

// TestGroupCommitMergesBehindSlowFsync: eight writers on ONE relation
// while the first commit fsync of every round is held until the others
// have caught up. Autocommit statements must share fsyncs through the
// shard pipeline (K=1: a batch of ≥ 2) and through the store's commit
// queue (K=4: two shards' batches under one fsync); 4-statement
// transactions on disjoint shards share them through the commit queue
// alone. The relation equals the flat-set model's V_P live and
// reopened.
func TestGroupCommitMergesBehindSlowFsync(t *testing.T) {
	const writers, units = 8, 12
	for _, leg := range []struct {
		name   string
		shards int
		perTx  int // 0: autocommit statements
	}{
		{"autocommit K=1", 1, 0},
		{"autocommit K=4", 4, 0},
		{"tx of 4 statements K=8", 8, 4},
	} {
		t.Run(leg.name, func(t *testing.T) {
			fsys, gate := newTxFS(), syncgate.New()
			db := openGated(t, fsys, gate)
			if err := db.Create(shardedDef("hot", leg.shards)); err != nil {
				t.Fatal(err)
			}
			// writer w's unit i: one row, or perTx rows of one student on
			// a shard no other writer touches (no latch conflicts)
			rows := func(w, i int) []tuple.Flat {
				if leg.perTx == 0 {
					return []tuple.Flat{row(fmt.Sprintf("w%d-s%d", w, i), fmt.Sprintf("c%d", i%4), fmt.Sprintf("b%d", i%3))}
				}
				student := ""
				for j := 0; student == "" || store.ShardOfAtom(value.NewString(student), leg.shards) != w; j++ {
					student = fmt.Sprintf("w%d-%d", w, j)
				}
				out := make([]tuple.Flat, leg.perTx)
				for j := range out {
					out[j] = row(student, fmt.Sprintf("c%d-%d", i, j), fmt.Sprintf("b%d", i%3))
				}
				return out
			}
			var all []tuple.Flat
			for w := 0; w < writers; w++ {
				for i := 0; i < units; i++ {
					all = append(all, rows(w, i)...)
				}
			}
			ws0, _ := db.WALStats()
			err := gate.Run(writers, units, func(w, i int) func() error {
				fs := rows(w, i)
				if leg.perTx == 0 {
					return func() error {
						ch, err := db.Insert("hot", fs[0])
						if err == nil && !ch {
							err = errors.New("insert of a new row changed nothing")
						}
						return err
					}
				}
				tx, err := db.Begin(context.Background())
				if err != nil {
					return func() error { return err }
				}
				if n, err := tx.InsertMany("hot", fs); err != nil || n != len(fs) {
					tx.Rollback()
					return func() error { return fmt.Errorf("%d of %d rows inserted: %v", n, len(fs), err) }
				}
				return tx.Commit
			})
			if err != nil {
				t.Fatal(err)
			}
			ws1, _ := db.WALStats()
			ps := db.PipelineStats()["hot"]
			fsyncs := ws1.Fsyncs - ws0.Fsyncs
			t.Logf("%d commits in %d fsyncs; largest pipeline batch %d, largest commit group %d",
				writers*units, fsyncs, ps.MaxBatch, ws1.MaxGroupBatches)
			if fsyncs >= writers*units {
				t.Errorf("%d commit fsyncs for %d commits: nothing merged", fsyncs, writers*units)
			}
			if leg.shards == 1 && ps.MaxBatch < 2 {
				t.Errorf("largest pipeline batch %d, want ≥ 2", ps.MaxBatch)
			}
			if leg.shards > 1 && ws1.MaxGroupBatches < 2 {
				t.Errorf("largest commit group %d, want ≥ 2", ws1.MaxGroupBatches)
			}
			checkLiveAndReopened(t, fsys, gate, db, "hot", all)
		})
	}
}

// TestBatchFallbackMixedBatch: three autocommit inserts that form ONE
// pipeline batch, one of them too large for a page. The batch is rolled
// back and re-applied statement by statement: the two good rows are
// acked as applied, the oversized one gets the error a lone oversized
// insert gets, and nothing of it is left live, on disk or in the
// indexes.
func TestBatchFallbackMixedBatch(t *testing.T) {
	fsys, gate := newTxFS(), syncgate.New()
	db := openGated(t, fsys, gate)
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	// a 5000-byte atom fits no page; its own course and club, so the
	// record is the same whichever rows were applied before it
	huge := row(strings.Repeat("x", 5000), "cx", "bx")
	good := []tuple.Flat{row("s1", "c1", "b1"), row("s2", "c1", "b1"), row("s3", "c2", "b2")}
	insert := func(f tuple.Flat) chan error {
		out := make(chan error, 1)
		go func() {
			ch, err := db.Insert("r", f)
			if err == nil && !ch {
				err = errors.New("insert of a new row changed nothing")
			}
			out <- err
		}()
		return out
	}
	// The first insert parks the shard's maintainer in its commit fsync.
	// While it is parked nothing drains the queue, so once the queue has
	// reached three the next drain takes exactly those three as a batch.
	gate.Armed.Store(true)
	acks := []chan error{insert(good[0])}
	<-gate.Entered
	acks = append(acks, insert(good[1]), insert(good[2]))
	bad := insert(huge)
	for db.PipelineStats()["r"].QueuePeak < 3 {
		runtime.Gosched()
	}
	gate.Armed.Store(false)
	gate.Release <- struct{}{}

	for i, ack := range acks {
		if err := <-ack; err != nil {
			t.Errorf("good row %d: %v", i, err)
		}
	}
	_, lone := db.Insert("r", huge)
	if err := <-bad; err == nil || lone == nil || err.Error() != lone.Error() {
		t.Errorf("oversized row in the batch: %v; alone: %v", err, lone)
	}
	if ps := db.PipelineStats()["r"]; ps.MaxBatch != 3 {
		t.Fatalf("largest batch %d: the three inserts did not form one batch", ps.MaxBatch)
	}
	checkLiveAndReopened(t, fsys, gate, db, "r", good)
}

// TestWALBytesPerInsert: after a warm-up and a checkpoint, a one-row
// insert statement logs less than one full page image, the window
// holds delta records, and the same page records priced as full images
// ('P' record: tag, pid, image, crc) would cost at least five times as
// much. One client, so a second run logs the same numbers.
func TestWALBytesPerInsert(t *testing.T) {
	const warmup, n = 400, 200
	const fullImageRec = 1 + 4 + storage.PageSize + 4
	sch, flats := enrollmentFlats(101, 120) // ≥ warmup+n rows
	type logged struct{ bytes, pages, deltas int }
	measure := func() logged {
		fsys := newTxFS()
		db, err := Open("db", WithFileSystem(fsys.open, fsys.remove), WithPoolPages(64), WithCheckpointBytes(-1))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		def := txTestDef("R1")
		def.Schema = sch
		if err := db.Create(def); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany("R1", flats[:warmup]); err != nil {
			t.Fatal(err)
		}
		// the window starts on an empty log and pays its own first-touch
		// full images, like any era after a checkpoint
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		ws0, _ := db.WALStats()
		for _, f := range flats[warmup : warmup+n] {
			if ch, err := db.Insert("R1", f); err != nil || !ch {
				t.Fatalf("insert: changed=%v err=%v", ch, err)
			}
		}
		ws1, _ := db.WALStats()
		return logged{ws1.BytesLogged - ws0.BytesLogged, ws1.PagesLogged - ws0.PagesLogged, ws1.DeltaPages - ws0.DeltaPages}
	}
	got := measure()
	if got.bytes > n*fullImageRec {
		t.Errorf("%d bytes logged per insert, want ≤ %d (one full page image)", got.bytes/n, fullImageRec)
	}
	if got.deltas == 0 {
		t.Errorf("no delta records among the window's %d page records", got.pages)
	}
	if got.pages*fullImageRec < 5*got.bytes {
		t.Errorf("%d bytes logged; the same %d page records as full images cost %d, less than 5x",
			got.bytes, got.pages, got.pages*fullImageRec)
	}
	if again := measure(); again != got {
		t.Errorf("second run logged %+v, first %+v", again, got)
	}
}

// TestSnapshotReadIgnoresOpenTx: a transaction that has run a statement
// and not committed holds the shard latch; Database.ReadRelation takes
// no latch, returns the state before the transaction, and sees the
// write once it has committed.
func TestSnapshotReadIgnoresOpenTx(t *testing.T) {
	fsys := newTxFS()
	db, err := Open("db", WithFileSystem(fsys.open, fsys.remove))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMany("r", []tuple.Flat{row("s1", "c1", "b1"), row("s2", "c1", "b1")}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := db.ReadRelation(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := tx.Insert("r", row("s3", "c9", "b9")); err != nil || !ch {
		t.Fatalf("insert: changed=%v err=%v", ch, err)
	}
	waits := db.LatchWaits()
	read := make(chan *core.Relation, 1)
	go func() {
		got, _ := db.ReadRelation(ctx, "r")
		read <- got
	}()
	select {
	case got := <-read:
		if got == nil || !got.Equal(before) {
			t.Fatalf("read beside the open transaction returned\n%v\nwant the state before it\n%v", got, before)
		}
	case <-time.After(10 * time.Second): // the bound of a failure, not a wait
		t.Fatal("ReadRelation is blocked behind the open transaction")
	}
	if got := db.LatchWaits(); got != waits {
		t.Fatalf("latch waits moved %d → %d: the read queued on the latch", waits, got)
	}
	inside, err := tx.ReadRelation(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after, err := db.ReadRelation(ctx, "r"); err != nil || after.Equal(before) || !after.Equal(inside) {
		t.Fatalf("read after commit: err=%v, relation\n%v\nwant the transaction's own view\n%v", err, after, inside)
	}
}
