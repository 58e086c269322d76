package storage

import (
	"fmt"
	"path/filepath"
	"testing"
)

// newTestPool builds a WAL pool over temp files plus the one
// transaction the index structure tests mutate under; commit makes it
// durable.
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

// TestDiskIndexPutGetDeleteReopen: puts (duplicates included, enough to
// split) and deletes answer exactly, and a fresh pool over the reopened
// file answers the same from the committed pages.
func TestDiskIndexPutGetDeleteReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.db")
	pg, w, bp := openWALPool(t, path, 8)
	txn := bp.Begin()
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
	if len(ix.buckets) <= indexInitBuckets {
		t.Fatalf("no splits after %d inserts (%d buckets)", n, len(ix.buckets))
	}
	probe := func(label string) {
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
	probe("live")

	// reopen: the commit wrote the pages through, so a pool over the
	// reopened file reads the same index
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}
	pg.Close()
	w.Close()
	_, _, bp = openWALPool(t, path, 8)
	ix.bp = bp
	probe("reopened")

	// deletes remove exactly the named mapping
	txn = bp.Begin()
	ok, err := ix.Delete(txn, []byte("key-0001"), RID{Page: 9999, Slot: 3})
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, _ := ix.Delete(txn, []byte("key-0001"), RID{Page: 9999, Slot: 3}); ok {
		t.Fatal("double delete reported a removal")
	}
	rids, err := ix.Get([]byte("key-0001"))
	if err != nil || len(rids) != 1 || rids[0] != (RID{Page: 2, Slot: 1}) {
		t.Fatalf("after delete: %v, %v", rids, err)
	}
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
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

// TestDiskIndexMetaOnlyOnSplit: the directory root holds the meta
// record, which only a split changes, so a Put that does not split and
// every Delete leave the root out of the transaction's dirty set, and
// the Put that splits dirties it.
func TestDiskIndexMetaOnlyOnSplit(t *testing.T) {
	bp, txn, commit := newTestPool(t, 8)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	rootDirty := func() bool {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		_, ok := txn.dirty[ix.root]
		return ok
	}
	mustPut(t, ix, txn, "plain", RID{Page: 1})
	if n := txn.DirtyPages(); n != 1 || rootDirty() {
		t.Fatalf("a Put without a split dirtied %d pages (the directory root among them: %v), want its bucket page alone", n, rootDirty())
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.Delete(txn, []byte("plain"), RID{Page: 1}); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if n := txn.DirtyPages(); n != 1 || rootDirty() {
		t.Fatalf("a Delete dirtied %d pages (the directory root among them: %v), want its bucket page alone", n, rootDirty())
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	buckets := len(ix.buckets)
	for i := 0; len(ix.buckets) == buckets; i++ {
		if i == 10000 {
			t.Fatal("no split after 10000 puts")
		}
		mustPut(t, ix, txn, fmt.Sprintf("fill-%d", i), RID{Page: uint32(i + 2)})
		if len(ix.buckets) == buckets && rootDirty() {
			t.Fatalf("put %d dirtied the directory root without a split", i)
		}
	}
	if !rootDirty() {
		t.Fatal("the Put that split left the directory root clean")
	}
}
