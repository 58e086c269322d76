package storage

import (
	"fmt"
	"testing"
)

// The B+tree's per-call costs on the tree one shard of nfr-spine's
// embed_write relation has: 800 entries of 8-byte keys at page
// capacity, height 2, every call under one long transaction (no commit
// in the loop). BenchmarkDiskHashPutDelete is the yardstick: the hash
// index doing the same pair of calls on the same substrate.

const benchTreeEntries = 800

func benchKey(i int) []byte { return []byte(fmt.Sprintf("\x05s%05d\x00", i)) }

func benchRID(i int) RID { return RID{Page: uint32(10 + i/50), Slot: uint16(i % 50)} }

// benchTree returns a tree holding the even-numbered keys of
// [0, 2·benchTreeEntries): the odd ones are the benchmark's to add.
func benchTree(b *testing.B) (*BTree, *Txn) {
	b.Helper()
	bp, txn, _ := newTestPool(b, 256)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchTreeEntries; i++ {
		// scattered order, as a heap hands out rids
		j := 2 * (i * 367 % benchTreeEntries)
		if err := ix.Put(txn, benchKey(j), benchRID(j)); err != nil {
			b.Fatal(err)
		}
	}
	if ix.Height() != 2 {
		b.Fatalf("height %d, want 2", ix.Height())
	}
	return ix, txn
}

// benchChurn times fwd over blocks of 100 odd keys and undoes each
// block with back off the clock, so the tree stays at its size.
func benchChurn(b *testing.B, fwd, back func(key []byte, rid RID)) {
	const block = 100
	keys := make([][]byte, block)
	for i := range keys {
		keys[i] = benchKey(2*(i*131%benchTreeEntries) + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += block {
		n := min(block, b.N-done)
		for i := 0; i < n; i++ {
			fwd(keys[i], benchRID(i))
		}
		b.StopTimer()
		for i := 0; i < n; i++ {
			back(keys[i], benchRID(i))
		}
		b.StartTimer()
	}
}

func BenchmarkBTreePut(b *testing.B) {
	ix, txn := benchTree(b)
	benchChurn(b, func(key []byte, rid RID) {
		if err := ix.Put(txn, key, rid); err != nil {
			b.Fatal(err)
		}
	}, func(key []byte, rid RID) {
		if ok, err := ix.Delete(txn, key, rid); err != nil || !ok {
			b.Fatal(ok, err)
		}
	})
}

func BenchmarkBTreeDelete(b *testing.B) {
	ix, txn := benchTree(b)
	put := func(key []byte, rid RID) {
		if err := ix.Put(txn, key, rid); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		put(benchKey(2*(i*131%benchTreeEntries)+1), benchRID(i))
	}
	benchChurn(b, func(key []byte, rid RID) {
		if ok, err := ix.Delete(txn, key, rid); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}, put)
}

func BenchmarkBTreeGet(b *testing.B) {
	ix, _ := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rids, err := ix.Get(benchKey(2 * (i * 131 % benchTreeEntries))); err != nil || len(rids) != 1 {
			b.Fatal(rids, err)
		}
	}
}

func BenchmarkBTreeRange20(b *testing.B) {
	ix, _ := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := 2 * (i * 131 % (benchTreeEntries - 20))
		n := 0
		if _, err := ix.Scan(benchKey(lo), true, benchKey(lo+40), false, func([]byte, RID) bool { n++; return true }); err != nil || n != 20 {
			b.Fatal(n, err)
		}
	}
}

func BenchmarkDiskHashPutDelete(b *testing.B) {
	bp, txn, _ := newTestPool(b, 256)
	ix, err := CreateDiskIndex(bp, txn)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchTreeEntries; i++ {
		if err := ix.Put(txn, benchKey(2*i), benchRID(2*i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, rid := benchKey(2*(i*131%benchTreeEntries)+1), benchRID(i%100)
		if err := ix.Put(txn, key, rid); err != nil {
			b.Fatal(err)
		}
		if ok, err := ix.Delete(txn, key, rid); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
