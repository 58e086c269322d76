package storage

import (
	"fmt"
	"testing"
)

// TestDiskIndexDeleteReclaimsOverflow: deleting the entries that forced
// a bucket to grow an overflow chain must shed the emptied overflow
// pages — unlinked from the chain, dropped from Pages(), and queued on
// TakeReleased for the caller's free list — while the index stays fully
// usable. Without this, a fill/drain workload leaks one page per
// historical overflow forever.
func TestDiskIndexDeleteReclaimsOverflow(t *testing.T) {
	bp, txn, flush := newTestPool(t, 32)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}

	// FILL: one key, many rids — duplicates all hash to one bucket, so
	// splitting cannot relieve it and the chain must grow overflow pages
	const n = 600
	key := "hot-key"
	for i := 0; i < n; i++ {
		mustPut(t, ix, txn, key, RID{Page: uint32(i + 1), Slot: uint16(i % 5)})
	}
	if got := ix.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	full, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("%d entries only span %d pages; no overflow chain to reclaim", n, len(full))
	}

	// DRAIN: delete every entry; the emptied overflow pages must come out
	for i := 0; i < n; i++ {
		ok, err := ix.Delete(txn, []byte(key), RID{Page: uint32(i + 1), Slot: uint16(i % 5)})
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("delete %d: entry missing", i)
		}
	}
	if got := ix.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
	released := ix.TakeReleased()
	if len(released) == 0 {
		t.Fatal("drain released no overflow pages")
	}
	if got := ix.TakeReleased(); len(got) != 0 {
		t.Fatalf("TakeReleased did not drain: %v", got)
	}
	drained, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained)+len(released) != len(full) {
		t.Fatalf("pages: %d full, %d drained + %d released (pages lost or invented)",
			len(full), len(drained), len(released))
	}
	onChain := map[uint32]bool{}
	for _, pid := range drained {
		onChain[pid] = true
	}
	for _, pid := range released {
		if onChain[pid] {
			t.Fatalf("page %d both released and still on a chain", pid)
		}
	}
	if rids, err := ix.Get([]byte(key)); err != nil || len(rids) != 0 {
		t.Fatalf("drained key still resolves: %v, %v", rids, err)
	}

	// the shrunken index must still take writes and survive reopen
	for i := 0; i < 20; i++ {
		mustPut(t, ix, txn, fmt.Sprintf("fresh-%d", i), RID{Page: uint32(1000 + i)})
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenDiskIndex(bp, ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.Len(); got != 20 {
		t.Fatalf("reopened Len = %d, want 20", got)
	}
	for i := 0; i < 20; i++ {
		rids, err := ix2.Get([]byte(fmt.Sprintf("fresh-%d", i)))
		if err != nil || len(rids) != 1 || rids[0].Page != uint32(1000+i) {
			t.Fatalf("reopened fresh-%d: %v, %v", i, rids, err)
		}
	}
}
