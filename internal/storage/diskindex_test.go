package storage

import (
	"fmt"
	"testing"
)

// newTestPool builds a WAL pool over temp files plus the one
// transaction the index structure tests mutate under; commit makes it
// durable (and flushes the indexes' deferred meta records) so a
// reattach reads what was written.
func newTestPool(t testing.TB, pages int) (bp *BufferPool, txn *Txn, commit func() error) {
	t.Helper()
	_, _, bp = newWALPool(t, pages)
	txn = bp.Begin()
	return bp, txn, func() error {
		_, err := bp.CommitTxn(txn)
		return err
	}
}

func mustPut(t *testing.T, ix *DiskHashIndex, txn *Txn, key string, rid RID) {
	t.Helper()
	if err := ix.Put(txn, []byte(key), rid); err != nil {
		t.Fatalf("Put(%q, %v): %v", key, rid, err)
	}
}

func TestDiskIndexPutGetDeleteReopen(t *testing.T) {
	bp, txn, flush := newTestPool(t, 8)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, ix, txn, fmt.Sprintf("key-%04d", i), RID{Page: uint32(i + 1), Slot: uint16(i % 7)})
	}
	// duplicate keys map to several rids
	mustPut(t, ix, txn, "key-0001", RID{Page: 9999, Slot: 3})
	if got := ix.Len(); got != n+1 {
		t.Fatalf("Len = %d, want %d", got, n+1)
	}
	if ix.Buckets() <= indexInitBuckets {
		t.Fatalf("no splits after %d inserts (%d buckets)", n, ix.Buckets())
	}
	probe := func(ix *DiskHashIndex, label string) {
		t.Helper()
		for i := 0; i < n; i++ {
			rids, err := ix.Get([]byte(fmt.Sprintf("key-%04d", i)))
			if err != nil {
				t.Fatalf("%s: Get key-%04d: %v", label, i, err)
			}
			want := 1
			if i == 1 {
				want = 2
			}
			if len(rids) != want {
				t.Fatalf("%s: Get key-%04d = %v, want %d rid(s)", label, i, rids, want)
			}
			found := false
			for _, r := range rids {
				if r == (RID{Page: uint32(i + 1), Slot: uint16(i % 7)}) {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: key-%04d lost its rid: %v", label, i, rids)
			}
		}
		if rids, _ := ix.Get([]byte("absent")); len(rids) != 0 {
			t.Fatalf("%s: absent key returned %v", label, rids)
		}
	}
	probe(ix, "live")

	// reopen: attach reads only the directory, answers stay identical
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenDiskIndex(bp, ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != ix.Len() || ix2.Buckets() != ix.Buckets() || ix2.Level() != ix.Level() {
		t.Fatalf("reattach changed shape: len %d/%d buckets %d/%d level %d/%d",
			ix2.Len(), ix.Len(), ix2.Buckets(), ix.Buckets(), ix2.Level(), ix.Level())
	}
	probe(ix2, "reopened")

	// deletes remove exactly the named mapping
	ok, err := ix2.Delete(txn, []byte("key-0001"), RID{Page: 9999, Slot: 3})
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, _ := ix2.Delete(txn, []byte("key-0001"), RID{Page: 9999, Slot: 3}); ok {
		t.Fatal("double delete reported a removal")
	}
	rids, err := ix2.Get([]byte("key-0001"))
	if err != nil || len(rids) != 1 || rids[0] != (RID{Page: 2, Slot: 1}) {
		t.Fatalf("after delete: %v, %v", rids, err)
	}
	if ix2.Len() != n {
		t.Fatalf("Len after delete = %d, want %d", ix2.Len(), n)
	}
}

func TestDiskIndexSplitKnob(t *testing.T) {
	bp, txn, flush := newTestPool(t, 8)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxBucketEntries(2)
	before := ix.Buckets()
	for i := 0; i < 10; i++ {
		mustPut(t, ix, txn, fmt.Sprintf("k%d", i), RID{Page: uint32(i + 1)})
	}
	if ix.Buckets() <= before {
		t.Fatalf("capped buckets did not split: %d buckets", ix.Buckets())
	}
	for i := 0; i < 10; i++ {
		rids, err := ix.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || len(rids) != 1 || rids[0].Page != uint32(i+1) {
			t.Fatalf("k%d after splits: %v, %v", i, rids, err)
		}
	}
	// the split state is self-describing: a reattach without the knob
	// still answers identically
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenDiskIndex(bp, ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rids, err := ix2.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || len(rids) != 1 {
			t.Fatalf("reattached k%d: %v, %v", i, rids, err)
		}
	}
}

func TestDiskIndexClear(t *testing.T) {
	bp, txn, flush := newTestPool(t, 8)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxBucketEntries(2)
	for i := 0; i < 40; i++ {
		mustPut(t, ix, txn, fmt.Sprintf("key-%02d", i), RID{Page: uint32(i + 1)})
	}
	grown, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	released, err := ix.Clear(txn)
	if err != nil {
		t.Fatal(err)
	}
	if len(released) == 0 {
		t.Fatal("clearing a grown index released no pages")
	}
	if got, want := len(released), len(grown)-1-indexInitBuckets; got != want {
		t.Fatalf("released %d pages, want %d", got, want)
	}
	if ix.Len() != 0 || ix.Buckets() != indexInitBuckets || ix.Level() != 0 {
		t.Fatalf("clear left len=%d buckets=%d level=%d", ix.Len(), ix.Buckets(), ix.Level())
	}
	for i := 0; i < 40; i++ {
		if rids, _ := ix.Get([]byte(fmt.Sprintf("key-%02d", i))); len(rids) != 0 {
			t.Fatalf("cleared index still answers key-%02d: %v", i, rids)
		}
	}
	// the reset structure keeps working and survives a reattach
	mustPut(t, ix, txn, "fresh", RID{Page: 7})
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenDiskIndex(bp, ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	rids, err := ix2.Get([]byte("fresh"))
	if err != nil || len(rids) != 1 || rids[0].Page != 7 {
		t.Fatalf("post-clear reattach: %v, %v", rids, err)
	}
}

func TestDiskIndexFatEntriesOverflow(t *testing.T) {
	bp, txn, _ := newTestPool(t, 8)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	// ~1.3 KiB keys: three per page, so overflow chains and splits are
	// exercised by a handful of inserts
	pad := make([]byte, 1300)
	for i := range pad {
		pad[i] = byte('a' + i%26)
	}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%02d", pad, i)
		mustPut(t, ix, txn, keys[i], RID{Page: uint32(i + 1)})
	}
	for i, k := range keys {
		rids, err := ix.Get([]byte(k))
		if err != nil || len(rids) != 1 || rids[0].Page != uint32(i+1) {
			t.Fatalf("fat key %d: %v, %v", i, rids, err)
		}
	}
	// an entry that can never fit a page is refused, not wedged
	huge := make([]byte, PageSize)
	if err := ix.Put(txn, huge, RID{Page: 1}); err == nil {
		t.Fatal("page-sized entry accepted")
	}
}

// TestDiskIndexShrinksOnDelete: deleting entries contracts the linear-
// hash table — trailing empty buckets are removed (reverse splits, one
// level up when the split pointer wraps), emptied directory overflow
// pages are trimmed, and every shed page lands on TakeReleased. The
// mid-shrink probe proves addressing stays correct while the table is
// part-way contracted.
func TestDiskIndexShrinksOnDelete(t *testing.T) {
	bp, txn, flush := newTestPool(t, 8)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxBucketEntries(2)
	const n = 1200
	key := func(i int) string { return fmt.Sprintf("shrink-%05d", i) }
	rid := func(i int) RID { return RID{Page: uint32(i + 1), Slot: uint16(i % 5)} }
	for i := 0; i < n; i++ {
		mustPut(t, ix, txn, key(i), rid(i))
	}
	grown := ix.Buckets()
	if grown <= indexInitBuckets {
		t.Fatalf("no splits after %d inserts", n)
	}
	if len(ix.dir) < 2 {
		t.Fatalf("want a directory overflow page to exercise trimming, got %d dir pages (%d buckets)",
			len(ix.dir), grown)
	}
	ix.TakeReleased() // discard overflow-unlink noise from the insert phase

	// delete the first half; whatever contraction that allows must keep
	// every remaining key addressable
	for i := 0; i < n/2; i++ {
		if ok, err := ix.Delete(txn, []byte(key(i)), rid(i)); err != nil || !ok {
			t.Fatalf("Delete(%q) = %v, %v", key(i), ok, err)
		}
	}
	for i := n / 2; i < n; i++ {
		rids, err := ix.Get([]byte(key(i)))
		if err != nil || len(rids) != 1 || rids[0] != rid(i) {
			t.Fatalf("mid-shrink: Get(%q) = %v, %v", key(i), rids, err)
		}
	}

	// delete the rest: the table must contract all the way back
	for i := n / 2; i < n; i++ {
		if ok, err := ix.Delete(txn, []byte(key(i)), rid(i)); err != nil || !ok {
			t.Fatalf("Delete(%q) = %v, %v", key(i), ok, err)
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len after deleting everything = %d", ix.Len())
	}
	if ix.Buckets() != indexInitBuckets || ix.Level() != 0 {
		t.Fatalf("empty index kept %d buckets at level %d, want %d at 0",
			ix.Buckets(), ix.Level(), indexInitBuckets)
	}
	if len(ix.dir) != 1 {
		t.Fatalf("empty index kept %d directory pages, want 1", len(ix.dir))
	}
	released := ix.TakeReleased()
	if len(released) < grown-indexInitBuckets {
		t.Fatalf("released %d pages, want at least the %d shed buckets",
			len(released), grown-indexInitBuckets)
	}
	pages, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1+indexInitBuckets {
		t.Fatalf("empty index owns %d pages, want %d", len(pages), 1+indexInitBuckets)
	}
	// no page is both owned and released
	owned := map[uint32]bool{}
	for _, pid := range pages {
		owned[pid] = true
	}
	for _, pid := range released {
		if owned[pid] {
			t.Fatalf("page %d both owned and released", pid)
		}
	}

	// the contracted index keeps working and persists its shape
	for i := 0; i < 50; i++ {
		mustPut(t, ix, txn, key(i), rid(i))
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenDiskIndex(bp, ix.Root())
	if err != nil {
		t.Fatalf("reattach after shrink: %v", err)
	}
	if ix2.Len() != 50 || ix2.Buckets() != ix.Buckets() || ix2.Level() != ix.Level() {
		t.Fatalf("reattach changed shape: len %d buckets %d level %d",
			ix2.Len(), ix2.Buckets(), ix2.Level())
	}
	for i := 0; i < 50; i++ {
		rids, err := ix2.Get([]byte(key(i)))
		if err != nil || len(rids) != 1 || rids[0] != rid(i) {
			t.Fatalf("reopened: Get(%q) = %v, %v", key(i), rids, err)
		}
	}
}
