package storage_test

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

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
	if err := w.AppendGroup([][]storage.WALPage{page(9)}, w.Clock()+1); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncs(1)
	if err := w.AppendGroup([][]storage.WALPage{page(1), page(2)}, w.Clock()+1); err == nil {
		t.Fatal("the injected fsync failure did not surface")
	}
	if err := w.AppendGroup([][]storage.WALPage{page(3)}, w.Clock()+1); err != nil {
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

// TestWriteThroughFailureFailsPool: when the data-file write AFTER a
// successful log fsync fails, the pool fails stop. The commit returns
// ErrFailed; so do a claim that was waiting for the commit's frame and
// every later CommitTxn, Get, GetMut, NewPage, snapshot read,
// Checkpoint and SyncData, even once the disk works again; neither file
// is written again; and the log holds the batch for the next open to
// apply.
func TestWriteThroughFailureFailsPool(t *testing.T) {
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
	write := func(fr *storage.Frame, rec string) {
		t.Helper()
		if _, err := fr.Page().Insert([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(fr, true); err != nil {
			t.Fatal(err)
		}
	}

	// version 1 commits normally
	txn := bp.Begin()
	fr, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	pid := fr.PID()
	write(fr, "v1")
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}

	// version 2: the log append succeeds, the write-through fails once
	txn2 := bp.Begin()
	fr2, err := bp.GetMut(txn2, pid)
	if err != nil {
		t.Fatal(err)
	}
	write(fr2, "v2")
	// a transaction waiting to claim the page must wake with the error;
	// GetMut counts its pool hit and waits under one hold of the pool's
	// lock, so once the hit shows, the claim is waiting
	hits := bp.Snapshot().Hits
	claim := make(chan error, 1)
	go func() { claim <- errOf(bp.GetMut(bp.Begin(), pid)) }()
	for bp.Snapshot().Hits == hits {
		runtime.Gosched()
	}
	failed := false
	fsys.FailWrite(func(name string) error {
		if name == "f.db" && !failed {
			failed = true
			return errors.New("injected write failure")
		}
		return nil
	})
	if _, err := bp.CommitTxn(txn2); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("commit with a failed write-through: %v, want ErrFailed", err)
	}
	select {
	case err := <-claim:
		if !errors.Is(err, storage.ErrFailed) {
			t.Errorf("the waiting claim: %v, want ErrFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting claim never woke")
	}
	fsys.Record()

	snap := bp.PinSnapshot()
	defer snap.Close()
	for _, c := range []struct {
		call string
		err  error
	}{
		{"CommitTxn", errOf(bp.CommitTxn(bp.Begin()))},
		{"Get", errOf(bp.Get(pid))},
		{"GetMut", errOf(bp.GetMut(bp.Begin(), pid))},
		{"NewPage", errOf(bp.NewPage(bp.Begin()))},
		{"snapshot read", snap.View(pid, func(*storage.Page) error { return nil })},
		{"Checkpoint", bp.Checkpoint()},
		{"SyncData", bp.SyncData()},
	} {
		if !errors.Is(c.err, storage.ErrFailed) {
			t.Errorf("%s on the failed pool: %v, want ErrFailed", c.call, c.err)
		}
	}
	if j := fsys.Journal(); len(j) != 0 {
		t.Errorf("the failed pool wrote or synced %d more times", len(j))
	}

	// the log holds version 2 for the next open
	w2, err := storage.OpenWAL("f.db.wal", crashfs.New(fsys.Snapshot()).Open)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	img, ok := w2.CommittedImages()[pid]
	if !ok {
		t.Fatalf("the log lost page %d", pid)
	}
	if rec, err := img.Get(1); err != nil || string(rec) != "v2" {
		t.Fatalf("logged page %d holds %q, %v; want v2", pid, rec, err)
	}
}

func errOf[T any](_ T, err error) error { return err }

// TestFailedExtendingAppend: the append that would carry a log past
// its file's end once the log holds 256 KiB fails its write. Nothing of
// it stays in the file, the next append extends the file instead, and
// reopening recovers every batch but the failed one, keeping the
// zeros past them as allocated space.
func TestFailedExtendingAppend(t *testing.T) {
	fsys := crashfs.New(nil)
	w, err := storage.OpenWAL("db.wal", fsys.Open)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := func() int64 { return int64(len(fsys.Snapshot()["db.wal"])) }
	page := func(pid uint32) [][]storage.WALPage {
		img := new(storage.Page)
		img.Init()
		img.SetLSN(uint64(pid))
		img.StampChecksum()
		return [][]storage.WALPage{{{PID: pid, Img: img}}}
	}
	n := 0
	for ; w.Size() < 256<<10; n++ {
		if err := w.AppendGroup(page(uint32(n+1)), w.Clock()+1); err != nil {
			t.Fatal(err)
		}
	}
	if fileSize() != w.Size() {
		t.Fatalf("the log grew to %d bytes under the threshold, its records end at %d", fileSize(), w.Size())
	}
	fsys.FailWrite(func(string) error { return errors.New("injected write failure") })
	if err := w.AppendGroup(page(9000), w.Clock()+1); err == nil {
		t.Fatal("the injected write failure did not surface")
	}
	fsys.FailWrite(nil)
	if fileSize() != w.Size() {
		t.Fatalf("the failed append left a file of %d bytes, the log ends at %d", fileSize(), w.Size())
	}
	if err := w.AppendGroup(page(9001), w.Clock()+1); err != nil {
		t.Fatal(err)
	}
	end := w.Size()
	if fileSize() < end+1<<20 {
		t.Fatalf("the next append did not extend the file: %d bytes, the log ends at %d", fileSize(), end)
	}
	allocated := fileSize()
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := storage.OpenWAL("db.wal", fsys.Open)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	images := w2.CommittedImages()
	st := w2.Stats()
	if _, failed := images[9000]; failed || images[9001] == nil || st.RecoveredBatches != n+1 {
		t.Fatalf("recovered %d batches (want %d); the failed batch is back: %v", st.RecoveredBatches, n+1, failed)
	}
	if w2.Size() != end || st.TornTailBytes != 0 || fileSize() != allocated {
		t.Fatalf("reopen: log ends at %d, %d torn bytes, file of %d; want %d, 0, %d",
			w2.Size(), st.TornTailBytes, fileSize(), end, allocated)
	}
}
