package storage_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/crashfs"
)

// TestFailedGroupAppendLeavesNoBatch: a committed batch, then a
// two-batch group (pages 1 and 2, full images) whose fsync fails, then
// a one-batch commit of page 3, exactly as long as the failed group's
// first batch, reusing its sequence number. Recovery must find the two
// committed batches and nothing of the failed group: left in the file,
// its second batch would follow page 3's and parse as the next one.
func TestFailedGroupAppendLeavesNoBatch(t *testing.T) {
	fsys := crashfs.New(nil)
	w, err := storage.OpenWAL("db.wal", fsys.Open)
	if err != nil {
		t.Fatal(err)
	}
	page := func(pid uint32) []storage.WALPage {
		img := new(storage.Page)
		img.Init()
		img.SetLSN(uint64(pid))
		img.StampChecksum()
		return []storage.WALPage{{PID: pid, Img: img}}
	}
	if err := w.AppendBatch(page(9)); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncs(1)
	if err := w.AppendGroup([][]storage.WALPage{page(1), page(2)}, w.Clock()+1); err == nil {
		t.Fatal("the injected fsync failure did not surface")
	}
	if err := w.AppendBatch(page(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := storage.OpenWAL("db.wal", fsys.Open)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var pids []uint32
	for pid := range w2.CommittedImages() {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	if got := w2.Stats().RecoveredBatches; got != 2 || !slices.Equal(pids, []uint32{3, 9}) {
		t.Fatalf("recovered %d batches of pages %v, want 2 of [3 9]: the failed group came back", got, pids)
	}
}

// TestWriteThroughFailureKeepsFramesDirty: when the data-file write
// AFTER a successful WAL fsync fails, the transaction's frames must
// stay dirty (the on-disk pages hold the PREVIOUS committed,
// checksum-valid version — eviction would silently serve stale data)
// and a retried commit must repair everything.
func TestWriteThroughFailureKeepsFramesDirty(t *testing.T) {
	fsys := crashfs.New(nil)
	f, err := fsys.Open("f.db", true)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := storage.NewPager(f)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	w, err := storage.OpenWAL("f.db.wal", fsys.Open)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	bp, err := storage.NewBufferPool(pg, 4)
	if err != nil {
		t.Fatal(err)
	}
	bp.AttachWAL(w)

	// commit version 1 of the page normally
	txn := bp.Begin()
	fr, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	pid := fr.PID()
	if _, err := fr.Page().Insert([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, true); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}

	// version 2: WAL append succeeds, data write-through fails
	txn2 := bp.Begin()
	fr2, err := bp.GetMut(txn2, pid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr2.Page().Insert([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr2, true); err != nil {
		t.Fatal(err)
	}
	fsys.FailWrite(func(name string) error {
		if name == "f.db" {
			return errors.New("injected write failure")
		}
		return nil
	})
	if _, err := bp.CommitTxn(txn2); err == nil {
		t.Fatal("write-through failure not surfaced")
	}
	fsys.FailWrite(nil)
	if txn2.DirtyPages() != 1 {
		t.Fatalf("failed write-through cleared the dirty set (%d pages)", txn2.DirtyPages())
	}
	// the pool still serves the committed-in-log version, not the stale disk copy
	rfr, err := bp.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rfr.Page().Get(1); err != nil {
		t.Fatal("v2 record lost from the buffered page")
	}
	bp.Unpin(rfr, false)
	// retry lands it on disk
	if _, err := bp.CommitTxn(txn2); err != nil {
		t.Fatalf("retried commit failed: %v", err)
	}
	var onDisk storage.Page
	if err := pg.Read(pid, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := onDisk.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	if rec, err := onDisk.Get(1); err != nil || string(rec) != "v2" {
		t.Fatalf("disk page after retry = %q, %v", rec, err)
	}
}
