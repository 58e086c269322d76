package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage/crashfs"
	"repro/internal/tuple"
)

// Tests for K-way sharded relations (RelationDef.Shards > 1): the heap
// is partitioned across K chains keyed by the determinant atom, each
// shard keeps its own resident Section-4 canonical form behind its own
// latch, and every read path re-canonicalizes the union. The reference
// in each test is the flat-set model: canonical forms depend only on
// the flat set, so the relation must equal the model's V_P at every
// committed boundary.

func shardedDef(name string, k int) RelationDef {
	d := txTestDef(name)
	d.Shards = k
	return d
}

// shardSpread reports how many distinct shards of r the flats land on —
// used to reject vacuous workloads that happen to hash onto one chain.
func shardSpread(r *Rel, fs []tuple.Flat) int {
	seen := map[*relShard]bool{}
	for _, f := range fs {
		seen[r.shardFor(f)] = true
	}
	return len(seen)
}

func TestShardedRelationEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(path, WithPoolPages(32))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(shardedDef("r", 4)); err != nil {
		t.Fatal(err)
	}
	model := newFlatModel(txTestDef("r"))

	var all []tuple.Flat
	for i := 0; i < 24; i++ {
		all = append(all, row(
			fmt.Sprintf("s%02d", i%12),
			fmt.Sprintf("c%d", i%5),
			fmt.Sprintf("b%d", i%3)))
	}
	r, err := db.Rel("r")
	if err != nil {
		t.Fatal(err)
	}
	if n := shardSpread(r, all); n < 2 {
		t.Fatalf("workload hits %d shard(s); sharding untested", n)
	}

	check := func(label string, d *Database) {
		t.Helper()
		model.check(t, d, "r", label)
		want := model.Canonical()
		gs, err := d.Stats("r")
		if err != nil {
			t.Fatalf("%s: stats: %v", label, err)
		}
		if gs.NFRTuples != want.Len() || gs.FlatTuples != want.ExpansionSize() {
			t.Fatalf("%s: stats (%d nfr, %d flat) disagree with the model's V_P (%d, %d)",
				label, gs.NFRTuples, gs.FlatTuples, want.Len(), want.ExpansionSize())
		}
	}

	// autocommit inserts, including duplicates: changed flags must agree
	for i, f := range all {
		ch, err := db.Insert("r", f)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if mch := model.Insert(f); ch != mch {
			t.Fatalf("insert %d: changed=%v, model=%v", i, ch, mch)
		}
	}
	// autocommit deletes of every third flat (some repeats → no-ops)
	for i := 0; i < len(all); i += 3 {
		ch, err := db.Delete("r", all[i])
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if mch := model.Delete(all[i]); ch != mch {
			t.Fatalf("delete %d: changed=%v, model=%v", i, ch, mch)
		}
	}
	check("after autocommit", db)

	// a multi-statement transaction spanning shards, rolled back: the
	// sharded relation must come back byte-for-byte
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := tx.Insert("r", row(fmt.Sprintf("x%d", i), "c9", "b9")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after rollback", db)

	// and committed: same statements against the model
	tx, err = db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		f := row(fmt.Sprintf("y%d", i), "c8", "b8")
		if _, err := tx.Insert("r", f); err != nil {
			t.Fatal(err)
		}
		model.Insert(f)
	}
	if _, err := tx.Delete("r", all[1]); err != nil {
		t.Fatal(err)
	}
	model.Delete(all[1])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after tx commit", db)
	if err := db.VerifyIndexes(); err != nil {
		t.Fatalf("VerifyIndexes: %v", err)
	}

	// reopen: the shard layout persists through the catalog and the
	// merged canonical form survives
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, WithPoolPages(32))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	def, err := db2.Def("r")
	if err != nil {
		t.Fatal(err)
	}
	if def.Shards != 4 {
		t.Fatalf("reopened Shards = %d, want 4", def.Shards)
	}
	check("after reopen", db2)
	if err := db2.VerifyIndexes(); err != nil {
		t.Fatalf("reopened VerifyIndexes: %v", err)
	}
}

// TestShardedPipelineConcurrent hammers ONE sharded relation from many
// goroutines through the autocommit pipeline: every statement must get
// its own correct ack, the final canonical form must equal the model's
// (set semantics make the final state order-independent: each goroutine
// deletes only tuples it inserted itself), and the pipeline counters
// must account for every statement. Run under -race in CI.
func TestShardedPipelineConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(shardedDef("hot", 4)); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		inserts = 30
		deletes = 10 // of our own inserts
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				f := row(fmt.Sprintf("w%d-s%d", w, i), fmt.Sprintf("c%d", i%4), fmt.Sprintf("b%d", i%3))
				ch, err := db.Insert("hot", f)
				if err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				if !ch {
					errs <- fmt.Errorf("worker %d insert %d: not changed", w, i)
					return
				}
			}
			for i := 0; i < deletes; i++ {
				f := row(fmt.Sprintf("w%d-s%d", w, i), fmt.Sprintf("c%d", i%4), fmt.Sprintf("b%d", i%3))
				ch, err := db.Delete("hot", f)
				if err != nil {
					errs <- fmt.Errorf("worker %d delete %d: %w", w, i, err)
					return
				}
				if !ch {
					errs <- fmt.Errorf("worker %d delete %d: not changed", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// the model holds the surviving flats (canonical form is a function
	// of the flat set alone)
	model := newFlatModel(txTestDef("hot"))
	for w := 0; w < workers; w++ {
		for i := deletes; i < inserts; i++ {
			model.Insert(row(fmt.Sprintf("w%d-s%d", w, i), fmt.Sprintf("c%d", i%4), fmt.Sprintf("b%d", i%3)))
		}
	}
	model.check(t, db, "hot", "concurrent sharded writes")

	// pipeline accounting: every statement went through a batch
	ps, ok := db.PipelineStats()["hot"]
	if !ok {
		t.Fatal("no pipeline stats for hot")
	}
	total := int64(workers * (inserts + deletes))
	if ps.Ops != total {
		t.Errorf("pipeline ops = %d, want %d", ps.Ops, total)
	}
	if ps.Batches <= 0 || ps.Batches > ps.Ops {
		t.Errorf("pipeline batches = %d (ops %d)", ps.Batches, ps.Ops)
	}
	if ps.Shards != 4 {
		t.Errorf("pipeline shards = %d, want 4", ps.Shards)
	}
	if ps.MaxBatch < 1 || ps.QueuePeak < 1 {
		t.Errorf("pipeline maxBatch=%d queuePeak=%d", ps.MaxBatch, ps.QueuePeak)
	}
	// the whole point: batching keeps fsyncs at or below one per statement
	if ws, ok := db.WALStats(); ok && ws.Fsyncs > 0 {
		if float64(ws.Fsyncs) > float64(total)*1.5 {
			t.Errorf("%d fsyncs for %d statements: batching is not engaging", ws.Fsyncs, total)
		}
	}

	if err := db.VerifyIndexes(); err != nil {
		t.Fatalf("VerifyIndexes: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	model.check(t, db2, "hot", "reopened")
	if err := db2.VerifyIndexes(); err != nil {
		t.Fatalf("reopened VerifyIndexes: %v", err)
	}
}

// TestWaitDieFairnessUnderPipeline pins the wait-die liveness contract
// on the pipelined path: an OLD multi-statement transaction repeatedly
// holds the relation latch while a swarm of YOUNG autocommit writers
// (which die on conflict, park on the refused latch holding nothing,
// and retry under their ORIGINAL id) hammer the same relation. Every
// young writer must commit within a bounded wait — no starvation, no
// deadlock — and the final state must equal the model's. Run under -race
// in CI.
func TestWaitDieFairnessUnderPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(path, WithPoolPages(32))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// a single shard maximizes contention: every writer needs THE latch
	if err := db.Create(txTestDef("r")); err != nil {
		t.Fatal(err)
	}

	const (
		rounds  = 4
		writers = 4
	)
	var youngOK atomic.Int64
	for round := 0; round < rounds; round++ {
		// the old transaction begins first → lowest id → wins wait-die
		old, err := db.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := old.Insert("r", row(fmt.Sprintf("old%d", round), "c0", "b0")); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				done := make(chan error, 1)
				go func() {
					ch, err := db.Insert("r", row(fmt.Sprintf("y%d-%d", round, w), "c1", "b1"))
					if err == nil && !ch {
						err = fmt.Errorf("young writer %d/%d: not changed", round, w)
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						errs <- err
						return
					}
					youngOK.Add(1)
				case <-time.After(30 * time.Second):
					errs <- fmt.Errorf("young writer %d/%d starved behind old tx", round, w)
				}
			}(w)
		}
		// hold the latch long enough for the young writers to pile up,
		// then grow the transaction once more and commit
		time.Sleep(5 * time.Millisecond)
		if _, err := old.Insert("r", row(fmt.Sprintf("old%d", round), "c2", "b2")); err != nil {
			t.Fatal(err)
		}
		if err := old.Commit(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	if got := youngOK.Load(); got != rounds*writers {
		t.Fatalf("%d young commits, want %d", got, rounds*writers)
	}

	// equivalence: everything everyone wrote is there
	model := newFlatModel(txTestDef("r"))
	for round := 0; round < rounds; round++ {
		model.Insert(row(fmt.Sprintf("old%d", round), "c0", "b0"))
		model.Insert(row(fmt.Sprintf("old%d", round), "c2", "b2"))
		for w := 0; w < writers; w++ {
			model.Insert(row(fmt.Sprintf("y%d-%d", round, w), "c1", "b1"))
		}
	}
	model.check(t, db, "r", "after the rounds")
}

// TestShardedTxCrashRecoveryEveryOffset drives the crash harness
// through the SHARDED write path: both relations carry Shards=3, the
// recorded transaction's statements fan out across several shard chains
// (disjoint heap pages, one merged WAL group), and a crash at every
// distinct crash state must still recover every shard of both
// relations on the same side of the transaction boundary.
func TestShardedTxCrashRecoveryEveryOffset(t *testing.T) {
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

	db := open()
	seed := []tuple.Flat{
		row("s1", "c1", "b1"), row("s1", "c2", "b1"), row("s2", "c1", "b2"),
		row("s3", "c3", "b1"), row("s4", "c1", "b3"),
	}
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(shardedDef(name, 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany(name, seed); err != nil {
			t.Fatal(err)
		}
	}
	// the seed must actually span chains, or this is the unsharded test
	r1, err := db.Rel("r1")
	if err != nil {
		t.Fatal(err)
	}
	if n := shardSpread(r1, seed); n < 2 {
		t.Fatalf("seed hits %d shard(s); sharding untested", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pre := loadRels(t, fsys.Snapshot(), "reference pre")
	db2 := open()
	defer db2.Close()
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
		{"r1", row("s8", "c8", "b8"), true},
		{"r1", row("s1", "c1", "b1"), false},
		{"r2", row("s2", "c4", "b2"), true},
		{"r2", row("s7", "c7", "b7"), true},
		{"r2", row("s3", "c3", "b1"), false},
	}
	touched := map[*relShard]bool{}
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
		r, rerr := db2.Rel(s.rel)
		if rerr != nil {
			t.Fatal(rerr)
		}
		touched[r.shardFor(s.f)] = true
	}
	if len(touched) < 3 {
		t.Fatalf("transaction touched %d shard chains; want ≥3 for a multi-shard commit", len(touched))
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

// TestPipelineBatchCrashRecoveryEveryOffset records a journal for ONE
// pipeline batch — several statements applied through applyBatch's
// single-transaction path (one latch hold, one maintainer Apply, one
// commit fsync) — and sweeps a crash across every distinct state it
// can leave. The batch, like any transaction, must be all-or-nothing
// on disk.
func TestPipelineBatchCrashRecoveryEveryOffset(t *testing.T) {
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

	db := open()
	seed := []tuple.Flat{row("s1", "c1", "b1"), row("s2", "c1", "b2")}
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(shardedDef(name, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany(name, seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pre := loadRels(t, fsys.Snapshot(), "reference pre")
	db2 := open()
	defer db2.Close()
	base := fsys.Record()

	// hand applyBatch a ready-made batch: three statements that must
	// commit as one unit on one shard chain
	r1, err := db2.Rel("r1")
	if err != nil {
		t.Fatal(err)
	}
	anchor := row("s1", "c7", "b7") // same determinant as a seed tuple
	sh := r1.shardFor(anchor)
	batch := []*pipeOp{
		{f: anchor, insert: true, done: make(chan struct{})},
		{f: row("s1", "c1", "b1"), insert: false, done: make(chan struct{})},
		{f: row("s1", "c5", "b5"), insert: true, done: make(chan struct{})},
	}
	for _, op := range batch {
		if r1.shardFor(op.f) != sh {
			t.Fatalf("batch op %v lands on a different shard; fix the fixture", op.f)
		}
	}
	db2.applyBatch(sh, batch)
	for i, op := range batch {
		if op.err != nil {
			t.Fatalf("batch op %d: %v", i, op.err)
		}
		if !op.changed {
			t.Fatalf("batch op %d: not changed", i)
		}
	}

	journal := fsys.Journal()
	post := loadRels(t, fsys.Snapshot(), "reference post")
	if pre["r1"].Equal(post["r1"]) {
		t.Fatal("batch changed nothing; harness is vacuous")
	}
	if !pre["r2"].Equal(post["r2"]) {
		t.Fatal("batch leaked into r2")
	}
	sweepTx(t, base, journal, pre, post)
}
