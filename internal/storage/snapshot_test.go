package storage

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// setRecord replaces slot 0 of the page owned by txn with rec.
func setRecord(t *testing.T, bp *BufferPool, txn *Txn, pid uint32, rec string) {
	t.Helper()
	fr, err := bp.GetMut(txn, pid)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Page().numSlots() > 0 {
		if err := fr.Page().Delete(0); err != nil {
			t.Fatal(err)
		}
		fr.Page().Compact()
	}
	if _, err := fr.Page().Insert([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, true); err != nil {
		t.Fatal(err)
	}
}

// snapRecord reads slot 0 of pid through the snapshot.
func snapRecord(t *testing.T, s *Snapshot, pid uint32) string {
	t.Helper()
	var rec string
	if err := s.View(pid, func(p *Page) error {
		r, err := p.Get(0)
		rec = string(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSnapshotIsolatesFromWriter: a pinned snapshot keeps serving the
// image committed at its pin point — through an uncommitted overwrite
// (base image) and through the commit that supersedes it (retained
// version) — while a fresh snapshot sees the new commit.
func TestSnapshotIsolatesFromWriter(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "v1")
	lsn1, err := bp.CommitTxn(t1)
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 == 0 {
		t.Fatal("commit did not advance the LSN clock")
	}

	s := bp.PinSnapshot()
	defer s.Close()
	if s.LSN() != lsn1 {
		t.Fatalf("snapshot pinned at %d, want %d", s.LSN(), lsn1)
	}

	// uncommitted overwrite: the snapshot must bypass the dirty frame
	t2 := bp.Begin()
	setRecord(t, bp, t2, pid, "v2-uncommitted")
	if got := snapRecord(t, s, pid); got != "v1" {
		t.Fatalf("snapshot saw uncommitted bytes: %q", got)
	}

	// committed overwrite: the snapshot must serve the retained version
	lsn2, err := bp.CommitTxn(t2)
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 <= lsn1 {
		t.Fatalf("LSN did not advance: %d -> %d", lsn1, lsn2)
	}
	if got := snapRecord(t, s, pid); got != "v1" {
		t.Fatalf("snapshot saw a commit past its pin point: %q", got)
	}
	if bp.Snapshot().RetainedVersions == 0 {
		t.Fatal("superseded image was not retained for the pinned snapshot")
	}

	s2 := bp.PinSnapshot()
	defer s2.Close()
	if got := snapRecord(t, s2, pid); got != "v2-uncommitted" {
		t.Fatalf("fresh snapshot saw %q, want the new commit", got)
	}
}

// TestSnapshotGetNeverBlocksOnOwner: Snapshot.Get must return while
// another transaction holds the frame claimed and dirty — the exact
// situation in which GetMut would park on ownerCond until commit.
func TestSnapshotGetNeverBlocksOnOwner(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "committed")
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}

	// stall a writer mid-transaction, claim held
	t2 := bp.Begin()
	setRecord(t, bp, t2, pid, "in flight")

	s := bp.PinSnapshot()
	defer s.Close()
	done := make(chan string, 1)
	go func() {
		done <- snapRecord(t, s, pid)
	}()
	select {
	case got := <-done:
		if got != "committed" {
			t.Fatalf("snapshot read %q under a stalled writer, want %q", got, "committed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read blocked on the stalled writer's claim")
	}
	if err := bp.Rollback(t2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotServesEvictedPageFromDisk: with no-steal, an uncached
// page's disk image IS its committed version; force the page out of the
// pool and read it through a snapshot.
func TestSnapshotServesEvictedPageFromDisk(t *testing.T) {
	_, _, bp := newWALPool(t, 2) // tiny pool: two frames
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "on disk")
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}
	if err := bp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := bp.PinSnapshot()
	defer s.Close()
	// thrash the pool so pid is evicted
	t2 := bp.Begin()
	for i := 0; i < 4; i++ {
		dirtyNewPage(t, bp, t2, fmt.Sprintf("filler %d", i))
		if _, err := bp.CommitTxn(t2); err != nil {
			t.Fatal(err)
		}
		t2 = bp.Begin()
	}
	if err := bp.Rollback(t2); err != nil {
		t.Fatal(err)
	}
	if got := snapRecord(t, s, pid); got != "on disk" {
		t.Fatalf("snapshot read %q from disk, want %q", got, "on disk")
	}
}

// TestSnapshotVersionGC: retained versions exist exactly as long as a
// pin can read them; closing the last snapshot frees everything.
func TestSnapshotVersionGC(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "gen 0")
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}

	s := bp.PinSnapshot()
	for gen := 1; gen <= 3; gen++ {
		txn := bp.Begin()
		setRecord(t, bp, txn, pid, fmt.Sprintf("gen %d", gen))
		if _, err := bp.CommitTxn(txn); err != nil {
			t.Fatal(err)
		}
	}
	// only the image at the pin point needs retaining; the two
	// intermediate generations have no reader and must not pile up
	if n := bp.Snapshot().RetainedVersions; n != 1 {
		t.Fatalf("retained %d versions for one pin, want 1", n)
	}
	if got := snapRecord(t, s, pid); got != "gen 0" {
		t.Fatalf("snapshot read %q, want %q", got, "gen 0")
	}
	s.Close()
	if n := bp.Snapshot().RetainedVersions; n != 0 {
		t.Fatalf("retained %d versions after last unpin, want 0", n)
	}
	if n := bp.Snapshot().PinnedSnapshots; n != 0 {
		t.Fatalf("%d pins outstanding after Close, want 0", n)
	}
	s.Close() // idempotent
	if err := s.View(pid, func(*Page) error { return nil }); err == nil {
		t.Fatal("read through a closed snapshot succeeded")
	}
}

// TestSnapshotCloseUnderLongPin: beside a pin held throughout, 1 000
// short snapshot reads, each across a commit of the page it reads,
// leave the retained versions at the long pin's own, and the long
// pin's close frees all of them onto the spare list.
func TestSnapshotCloseUnderLongPin(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	commit := func(txn *Txn) {
		t.Helper()
		if _, err := bp.CommitTxn(txn); err != nil {
			t.Fatal(err)
		}
	}
	t0 := bp.Begin()
	pids := []uint32{dirtyNewPage(t, bp, t0, "v0"), dirtyNewPage(t, bp, t0, "v0")}
	commit(t0)
	long := bp.PinSnapshot()
	cur := []string{"v0", "v0"}
	for i := 0; i < 1000; i++ {
		short := bp.PinSnapshot()
		k := i % len(pids)
		txn := bp.Begin()
		setRecord(t, bp, txn, pids[k], fmt.Sprintf("v%d", i+1))
		commit(txn)
		if got := snapRecord(t, short, pids[k]); got != cur[k] {
			t.Fatalf("read %d: short pin saw %q, want %q", i, got, cur[k])
		}
		cur[k] = fmt.Sprintf("v%d", i+1)
		short.Close()
		// the long pin keeps its image of each page, nothing more
		if n, want := bp.Snapshot().RetainedVersions, min(i+1, len(pids)); n != want {
			t.Fatalf("read %d: %d versions retained, want %d", i, n, want)
		}
	}
	for _, pid := range pids {
		if got := snapRecord(t, long, pid); got != "v0" {
			t.Fatalf("long pin read %q on page %d, want v0", got, pid)
		}
	}
	spares := len(bp.spare)
	long.Close()
	if n := bp.Snapshot().RetainedVersions; n != 0 {
		t.Fatalf("%d versions retained after the long pin closed, want 0", n)
	}
	if got, want := len(bp.spare), min(spares+len(pids), maxSpareBases); got != want {
		t.Fatalf("spare list holds %d images after the close, want %d", got, want)
	}
}

// TestEmptyCommitKeepsClock: committing a transaction with no dirty
// pages must not advance the LSN clock (no pages published).
func TestEmptyCommitKeepsClock(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "x")
	lsn1, err := bp.CommitTxn(t1)
	if err != nil {
		t.Fatal(err)
	}
	empty := bp.Begin()
	lsn2, err := bp.CommitTxn(empty)
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != lsn1 {
		t.Fatalf("empty commit moved the clock: %d -> %d", lsn1, lsn2)
	}
	if bp.LSN() != lsn1 {
		t.Fatalf("pool clock %d, want %d", bp.LSN(), lsn1)
	}
	_ = pid
}

// TestScanHeapSnapshotSeesOneBoundary: a snapshot heap scan observes
// exactly the records committed at its pin point, even while a writer
// splices new tail pages into the chain and commits past it — the Next
// pointers themselves come from versioned images.
func TestScanHeapSnapshotSeesOneBoundary(t *testing.T) {
	_, _, bp := newWALPool(t, 32)
	txn := bp.Begin()
	h, err := CreateHeap(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	// enough records to span several pages
	big := make([]byte, 900)
	want := make(map[string]bool)
	for i := 0; i < 20; i++ {
		rec := append([]byte(fmt.Sprintf("old-%02d|", i)), big...)
		if _, err := h.Insert(txn, rec); err != nil {
			t.Fatal(err)
		}
		want[string(rec[:7])] = true
	}
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}

	s := bp.PinSnapshot()
	defer s.Close()

	// writer keeps extending the chain: first uncommitted, then committed
	w1 := bp.Begin()
	for i := 0; i < 10; i++ {
		if _, err := h.Insert(w1, append([]byte(fmt.Sprintf("new-%02d|", i)), big...)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		got := make(map[string]bool)
		err := ScanHeapSnapshot(context.Background(), s, h.FirstPage(), func(rid RID, rec []byte) bool {
			got[string(rec[:7])] = true
			return true
		})
		if err != nil {
			t.Fatalf("%s: snapshot scan: %v", stage, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: snapshot scan saw %d records, want %d", stage, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: snapshot scan lost record %q", stage, k)
			}
		}
	}
	check("uncommitted writer")
	if _, err := bp.CommitTxn(w1); err != nil {
		t.Fatal(err)
	}
	check("writer committed past the pin")

	// a fresh snapshot sees both generations
	s2 := bp.PinSnapshot()
	defer s2.Close()
	n := 0
	if err := ScanHeapSnapshot(context.Background(), s2, h.FirstPage(), func(rid RID, rec []byte) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("fresh snapshot saw %d records, want 30", n)
	}

	// context cancellation propagates
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ScanHeapSnapshot(ctx, s2, h.FirstPage(), func(RID, []byte) bool { return true }); err == nil {
		t.Fatal("cancelled scan returned nil")
	}
}

// TestSnapshotRollbackRestoresBase: rolling a writer back discards its
// base capture; both the snapshot and a direct read then see the
// committed image.
func TestSnapshotRollbackRestoresBase(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	t1 := bp.Begin()
	pid := dirtyNewPage(t, bp, t1, "keep")
	if _, err := bp.CommitTxn(t1); err != nil {
		t.Fatal(err)
	}
	s := bp.PinSnapshot()
	defer s.Close()
	t2 := bp.Begin()
	setRecord(t, bp, t2, pid, "discard")
	if err := bp.Rollback(t2); err != nil {
		t.Fatal(err)
	}
	if got := snapRecord(t, s, pid); got != "keep" {
		t.Fatalf("snapshot read %q after rollback, want %q", got, "keep")
	}
	fr, err := bp.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fr.Page().Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec) != "keep" {
		t.Fatalf("direct read %q after rollback, want %q", rec, "keep")
	}
	if err := bp.Unpin(fr, false); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPinnedAcrossCommits: a snapshot pinned before 100
// commits to one page reads that page's pinned bytes after every one
// of them. The base image each commit retires is retained for the pin
// and must never return to the pool's spare list, where the next
// claim would overwrite it.
func TestSnapshotPinnedAcrossCommits(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	txn := bp.Begin()
	pid := dirtyNewPage(t, bp, txn, "v0")
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}
	snap := bp.PinSnapshot()
	defer snap.Close()
	for i := 1; i <= 100; i++ {
		setRecord(t, bp, txn, pid, fmt.Sprintf("v%d", i))
		if _, err := bp.CommitTxn(txn); err != nil {
			t.Fatal(err)
		}
		if got := snapRecord(t, snap, pid); got != "v0" {
			t.Fatalf("after commit %d the pinned snapshot reads %q, want v0", i, got)
		}
	}
	now := bp.PinSnapshot()
	defer now.Close()
	if got := snapRecord(t, now, pid); got != "v100" {
		t.Fatalf("a fresh snapshot reads %q, want v100", got)
	}
}
