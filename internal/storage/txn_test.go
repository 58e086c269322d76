package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// newWALPool builds a pager + WAL-attached pool in a temp dir.
func newWALPool(t testing.TB, capacity int) (*Pager, *WAL, *BufferPool) {
	t.Helper()
	return openWALPool(t, filepath.Join(t.TempDir(), "txn.db"), capacity)
}

// openWALPool opens (creating if missing) the data file at path and
// its path+".wal" sidecar behind a pool.
func openWALPool(t testing.TB, path string, capacity int) (*Pager, *WAL, *BufferPool) {
	t.Helper()
	pg, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	w, err := OpenWAL(path+".wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	bp, err := NewBufferPool(pg, capacity)
	if err != nil {
		t.Fatal(err)
	}
	bp.AttachWAL(w)
	return pg, w, bp
}

// dirtyNewPage allocates a page under txn, writes one record, unpins
// dirty, and returns the pid.
func dirtyNewPage(t *testing.T, bp *BufferPool, txn *Txn, rec string) uint32 {
	t.Helper()
	fr, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Page().Insert([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	pid := fr.PID()
	if err := bp.Unpin(fr, true); err != nil {
		t.Fatal(err)
	}
	return pid
}

// TestTxnDirtySetsAreIsolated: committing one transaction must log
// exactly ITS dirty pages, leaving a concurrent transaction's dirty
// pages buffered and unlogged.
func TestTxnDirtySetsAreIsolated(t *testing.T) {
	_, w, bp := newWALPool(t, 8)
	t1, t2 := bp.Begin(), bp.Begin()
	p1 := dirtyNewPage(t, bp, t1, "one")
	p2 := dirtyNewPage(t, bp, t2, "two")
	if t1.DirtyPages() != 1 || t2.DirtyPages() != 1 {
		t.Fatalf("dirty sets: %d/%d, want 1/1", t1.DirtyPages(), t2.DirtyPages())
	}
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Batches != 1 || st.PagesLogged != 1 {
		t.Fatalf("t1 commit logged %d batches / %d pages, want 1/1", st.Batches, st.PagesLogged)
	}
	if _, ok := w.Image(p1); !ok {
		t.Fatal("t1's page missing from the log")
	}
	if _, ok := w.Image(p2); ok {
		t.Fatal("t2's uncommitted page leaked into the log")
	}
	if t1.DirtyPages() != 0 || t2.DirtyPages() != 1 {
		t.Fatalf("dirty sets after t1 commit: %d/%d, want 0/1", t1.DirtyPages(), t2.DirtyPages())
	}
	if _, err := bp.CommitTxn(t2); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Image(p2); !ok {
		t.Fatal("t2's page missing after its commit")
	}
}

// TestGetMutBlocksUntilOwnerCommits: a page dirtied by an uncommitted
// transaction cannot be claimed by another until the owner commits.
func TestGetMutBlocksUntilOwnerCommits(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "owned")

	t2 := bp.Begin()
	claimed := make(chan struct{})
	go func() {
		fr, err := bp.GetMut(t2, pid)
		if err == nil {
			bp.Unpin(fr, true)
		}
		close(claimed)
	}()
	select {
	case <-claimed:
		t.Fatal("claim of an owned page did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-claimed:
	case <-time.After(2 * time.Second):
		t.Fatal("claim still blocked after the owner committed")
	}
	if _, err := bp.CommitTxn(t2); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyUnpinOutsideTxnRejected: WAL-mode pools must refuse
// untracked mutations — a dirty page that belongs to no transaction
// could never be committed.
func TestDirtyUnpinOutsideTxnRejected(t *testing.T) {
	_, _, bp := newWALPool(t, 4)
	txn := bp.Begin()
	pid := dirtyNewPage(t, bp, txn, "x")
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}
	fr, err := bp.Get(pid) // read pin
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, true); err == nil {
		t.Fatal("dirty unpin of a read-pinned page accepted")
	}
	if err := bp.Unpin(fr, false); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(nil); err == nil {
		t.Fatal("page allocation outside a transaction accepted")
	}
	if _, err := bp.GetMut(nil, pid); err == nil {
		t.Fatal("GetMut outside a transaction accepted")
	}
}

// TestConcurrentCommitsMergeAndSurvive: many transactions committing in
// parallel must all come back after a reopen, with the WAL having
// merged at least some commits when contention allows (asserted only as
// fsyncs ≤ batches — merging is timing-dependent).
func TestConcurrentCommitsMergeAndSurvive(t *testing.T) {
	const writers = 12
	dir := t.TempDir()
	pg, err := OpenPager(filepath.Join(dir, "m.db"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(filepath.Join(dir, "m.db.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(pg, writers*2)
	if err != nil {
		t.Fatal(err)
	}
	bp.AttachWAL(w)

	pids := make([]uint32, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := bp.Begin()
			fr, err := bp.NewPage(txn)
			if err != nil {
				errs <- err
				return
			}
			if _, err := fr.Page().Insert([]byte(fmt.Sprintf("writer-%02d", i))); err != nil {
				errs <- err
				return
			}
			pids[i] = fr.PID()
			if err := bp.Unpin(fr, true); err != nil {
				errs <- err
				return
			}
			if _, err := bp.CommitTxn(txn); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Batches != writers {
		t.Fatalf("batches = %d, want %d", st.Batches, writers)
	}
	if st.Fsyncs > st.Batches {
		t.Fatalf("fsyncs %d exceed batches %d", st.Fsyncs, st.Batches)
	}
	t.Logf("merge: %d batches in %d fsyncs (max group %d)", st.Batches, st.Fsyncs, st.MaxGroupBatches)
	w.Close()
	pg.Close()

	// reopen and verify every writer's record arrived
	pg2, err := OpenPager(filepath.Join(dir, "m.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	for i, pid := range pids {
		var p Page
		if err := pg2.Read(pid, &p); err != nil {
			t.Fatal(err)
		}
		if err := p.VerifyChecksum(); err != nil {
			t.Fatalf("page %d: %v", pid, err)
		}
		rec, err := p.Get(0)
		if err != nil || string(rec) != fmt.Sprintf("writer-%02d", i) {
			t.Fatalf("writer %d's record = %q, %v", i, rec, err)
		}
	}
}

// TestWALAppendGroupRecovery: a merged append is several batches with
// consecutive seqs in one write; recovery must see each batch.
func TestWALAppendGroupRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SetDBID(0xDEADBEEF)
	if err := w.AppendGroup([][]WALPage{
		{{1, pageWithRecord(t, "a")}},
		{{2, pageWithRecord(t, "b")}, {3, pageWithRecord(t, "c")}},
		{{1, pageWithRecord(t, "a2")}},
	}, 1); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Batches != 3 || st.Fsyncs != 1 || st.PagesLogged != 4 || st.MaxGroupBatches != 3 {
		t.Fatalf("group stats = %+v", st)
	}
	w.Close()
	w2, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.DBID() != 0xDEADBEEF {
		t.Fatalf("dbid = %x", w2.DBID())
	}
	if st := w2.Stats(); st.RecoveredBatches != 3 {
		t.Fatalf("recovered %d batches, want 3", st.RecoveredBatches)
	}
	if img, ok := w2.Image(1); !ok {
		t.Fatal("page 1 image missing")
	} else if rec, _ := img.Get(0); string(rec) != "a2" {
		t.Fatalf("page 1 image = %q, want latest", rec)
	}
}

// TestRollbackDiscardsDirtyFrames: Rollback drops a transaction's
// dirty frames so the next read sees the last committed state, and
// releases ownership so blocked claimants proceed.
func TestRollbackDiscardsDirtyFrames(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "committed")
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}
	t2 := bp.Begin()
	fr, err := bp.GetMut(t2, pid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Page().Insert([]byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, true); err != nil {
		t.Fatal(err)
	}
	claimed := make(chan struct{})
	t3 := bp.Begin()
	go func() {
		if fr, err := bp.GetMut(t3, pid); err == nil {
			bp.Unpin(fr, false)
		}
		close(claimed)
	}()
	select {
	case <-claimed:
		t.Fatal("claim did not block on the owner")
	case <-time.After(20 * time.Millisecond):
	}
	if err := bp.Rollback(t2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-claimed:
	case <-time.After(2 * time.Second):
		t.Fatal("claim still blocked after rollback")
	}
	rfr, err := bp.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := rfr.Page().Get(0); err != nil || string(rec) != "committed" {
		t.Fatalf("rolled-back page = %q, %v (want last committed)", rec, err)
	}
	if _, err := rfr.Page().Get(1); err == nil {
		t.Fatal("uncommitted record survived rollback")
	}
	bp.Unpin(rfr, false)
}
