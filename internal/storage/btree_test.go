package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func btKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

// btModel is the reference: a sorted slice of (key, rid) pairs.
type btModel []btEntry

func (m btModel) insert(key []byte, rid RID) btModel {
	pos := sort.Search(len(m), func(i int) bool { return cmpEntry(m[i], key, rid) > 0 })
	m = append(m, btEntry{})
	copy(m[pos+1:], m[pos:])
	m[pos] = btEntry{key: append([]byte(nil), key...), rid: rid}
	return m
}

func (m btModel) remove(key []byte, rid RID) (btModel, bool) {
	pos := sort.Search(len(m), func(i int) bool { return cmpEntry(m[i], key, rid) >= 0 })
	if pos >= len(m) || cmpEntry(m[pos], key, rid) != 0 {
		return m, false
	}
	return append(m[:pos:pos], m[pos+1:]...), true
}

// scanAll drains the tree in order.
func scanAll(t *testing.T, ix *BTree) []btEntry {
	t.Helper()
	var out []btEntry
	if _, err := ix.Scan(nil, true, nil, true, func(key []byte, rid RID) bool {
		out = append(out, btEntry{key: append([]byte(nil), key...), rid: rid})
		return true
	}); err != nil {
		t.Fatalf("full scan: %v", err)
	}
	return out
}

func sameEntries(a, b []btEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || a[i].rid != b[i].rid {
			return false
		}
	}
	return true
}

// TestBTreeSplitsAndOrder drives enough inserts through a tiny-node
// tree to force both leaf and inner splits, then checks the full scan
// is the sorted model, point Gets see every rid (including duplicate
// keys), and the structure validates.
func TestBTreeSplitsAndOrder(t *testing.T) {
	bp, txn, flush := newTestPool(t, 16)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxNodeEntries(4)
	var model btModel
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		k := btKey(rng.Intn(60)) // plenty of duplicate keys
		rid := RID{Page: uint32(i + 1), Slot: uint16(i % 5)}
		if err := ix.Put(txn, k, rid); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		model = model.insert(k, rid)
	}
	if ix.Height() < 3 {
		t.Fatalf("height %d after 200 inserts at 4 entries/node; inner splits untested", ix.Height())
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(model))
	}
	if got := scanAll(t, ix); !sameEntries(got, model) {
		t.Fatalf("scan diverged from model: %d vs %d entries", len(got), len(model))
	}
	for i := 0; i < 60; i++ {
		var want []RID
		for _, e := range model {
			if bytes.Equal(e.key, btKey(i)) {
				want = append(want, e.rid)
			}
		}
		got, err := ix.Get(btKey(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Get %d = %d rids, want %d", i, len(got), len(want))
		}
	}
	if _, err := ix.Pages(); err != nil {
		t.Fatalf("structure check: %v", err)
	}

	// reattach reads only the meta page and answers identically
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenBTree(bp, ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != ix.Len() || ix2.Height() != ix.Height() {
		t.Fatalf("reattach changed shape: len %d/%d height %d/%d", ix2.Len(), ix.Len(), ix2.Height(), ix.Height())
	}
	if got := scanAll(t, ix2); !sameEntries(got, model) {
		t.Fatal("reopened scan diverged from model")
	}
}

// TestBTreeRangeScanBounds exercises every bound combination against
// the model, including open/closed ends on duplicate-key runs.
func TestBTreeRangeScanBounds(t *testing.T) {
	bp, txn, _ := newTestPool(t, 16)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxNodeEntries(3)
	var model btModel
	for i := 0; i < 40; i++ {
		k := btKey(i % 10)
		rid := RID{Page: uint32(i + 1), Slot: 0}
		if err := ix.Put(txn, k, rid); err != nil {
			t.Fatal(err)
		}
		model = model.insert(k, rid)
	}
	for lo := -1; lo < 10; lo++ {
		for hi := lo; hi < 11; hi++ {
			for _, loIncl := range []bool{true, false} {
				for _, hiIncl := range []bool{true, false} {
					var loK, hiK []byte
					if lo >= 0 {
						loK = btKey(lo)
					}
					if hi < 10 {
						hiK = btKey(hi)
					}
					var want []btEntry
					for _, e := range model {
						if loK != nil {
							if c := bytes.Compare(e.key, loK); c < 0 || (c == 0 && !loIncl) {
								continue
							}
						}
						if hiK != nil {
							if c := bytes.Compare(e.key, hiK); c > 0 || (c == 0 && !hiIncl) {
								continue
							}
						}
						want = append(want, e)
					}
					var got []btEntry
					if _, err := ix.Scan(loK, loIncl, hiK, hiIncl, func(key []byte, rid RID) bool {
						got = append(got, btEntry{key: append([]byte(nil), key...), rid: rid})
						return true
					}); err != nil {
						t.Fatalf("scan [%d,%d]: %v", lo, hi, err)
					}
					if !sameEntries(got, want) {
						t.Fatalf("scan lo=%d(%v) hi=%d(%v): %d entries, want %d",
							lo, loIncl, hi, hiIncl, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestBTreeScanPagesBounded is the structural payoff: a window scan
// touches O(height + matching leaves) pages, never the whole tree.
func TestBTreeScanPagesBounded(t *testing.T) {
	bp, txn, _ := newTestPool(t, 32)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxNodeEntries(4)
	const n = 400
	for i := 0; i < n; i++ {
		if err := ix.Put(txn, btKey(i), RID{Page: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, leaves, err := ix.walk()
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	pages, err := ix.Scan(btKey(100), true, btKey(120), false, func([]byte, RID) bool {
		matched++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 20 {
		t.Fatalf("window matched %d entries, want 20", matched)
	}
	// ≤ descent + matching leaves + 1 boundary leaf; a split at 5
	// entries leaves halves of 2, so worst-case occupancy is 2/leaf
	bound := ix.Height() + 20/2 + 1
	if pages > bound {
		t.Fatalf("window scan read %d pages, bound %d (tree has %d leaves)", pages, bound, len(leaves))
	}
	if pages >= len(leaves) {
		t.Fatalf("window scan read %d pages — the whole leaf level (%d)", pages, len(leaves))
	}
}

// TestBTreeDeleteUnlink empties whole key runs so leaves drain,
// verifying emptied leaves leave the tree (TakeReleased), the chain
// stays consistent, and every answer matches the model throughout.
func TestBTreeDeleteUnlink(t *testing.T) {
	bp, txn, _ := newTestPool(t, 16)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxNodeEntries(3)
	var model btModel
	type pair struct {
		k   []byte
		rid RID
	}
	var pairs []pair
	for i := 0; i < 120; i++ {
		k, rid := btKey(i), RID{Page: uint32(i + 1)}
		if err := ix.Put(txn, k, rid); err != nil {
			t.Fatal(err)
		}
		model = model.insert(k, rid)
		pairs = append(pairs, pair{k, rid})
	}
	pagesBefore, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var reclaimed []uint32
	for i, p := range pairs[:100] {
		ok, err := ix.Delete(txn, p.k, p.rid)
		if err != nil || !ok {
			t.Fatalf("Delete %d: %v %v", i, ok, err)
		}
		var was bool
		model, was = model.remove(p.k, p.rid)
		if !was {
			t.Fatal("model out of sync")
		}
		reclaimed = append(reclaimed, ix.TakeReleased()...)
		if i%10 == 0 {
			if got := scanAll(t, ix); !sameEntries(got, model) {
				t.Fatalf("after %d deletes scan diverged", i+1)
			}
			if _, err := ix.Pages(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if len(reclaimed) == 0 {
		t.Fatal("100 deletes at 3 entries/node emptied no leaf; unlink untested")
	}
	pagesAfter, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pagesAfter) >= len(pagesBefore) {
		t.Fatalf("tree kept %d pages after draining (was %d)", len(pagesAfter), len(pagesBefore))
	}
	own := map[uint32]bool{}
	for _, pid := range pagesAfter {
		own[pid] = true
	}
	for _, pid := range reclaimed {
		if own[pid] {
			t.Fatalf("released page %d still owned by the tree", pid)
		}
	}
	// double delete answers false
	if ok, _ := ix.Delete(txn, pairs[0].k, pairs[0].rid); ok {
		t.Fatal("double delete reported a removal")
	}
	if got := scanAll(t, ix); !sameEntries(got, model) {
		t.Fatal("final scan diverged from model")
	}
}

// TestBTreeClear resets to a one-leaf tree, releasing everything else.
func TestBTreeClear(t *testing.T) {
	bp, txn, _ := newTestPool(t, 16)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMaxNodeEntries(3)
	for i := 0; i < 80; i++ {
		if err := ix.Put(txn, btKey(i), RID{Page: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := ix.Pages()
	if err != nil {
		t.Fatal(err)
	}
	released, err := ix.Clear(txn)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.Height() != 1 {
		t.Fatalf("after Clear: len %d height %d", ix.Len(), ix.Height())
	}
	if len(released)+2 != len(before) {
		t.Fatalf("Clear released %d of %d pages (meta + root leaf stay)", len(released), len(before))
	}
	if got := scanAll(t, ix); len(got) != 0 {
		t.Fatalf("cleared tree still yields %d entries", len(got))
	}
	if err := ix.Put(txn, btKey(1), RID{Page: 1}); err != nil {
		t.Fatalf("Put after Clear: %v", err)
	}
	inner, leaf, err := ix.PageCounts()
	if err != nil {
		t.Fatal(err)
	}
	if inner != 1 || leaf != 1 {
		t.Fatalf("PageCounts = %d inner, %d leaf; want 1, 1", inner, leaf)
	}
}

// TestBTreeKeyCap rejects impossible keys instead of corrupting pages.
func TestBTreeKeyCap(t *testing.T) {
	bp, txn, _ := newTestPool(t, 8)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Put(txn, make([]byte, MaxBTreeKey+1), RID{Page: 1}); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := ix.Put(txn, make([]byte, MaxBTreeKey), RID{Page: 1}); err != nil {
		t.Fatalf("cap-sized key rejected: %v", err)
	}
	if err := ix.Put(txn, make([]byte, MaxBTreeKey), RID{Page: 2}); err != nil {
		t.Fatalf("second cap-sized key (forcing a split) rejected: %v", err)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if _, err := ix.Pages(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeModelAtPageCapacity: no node cap, so nodes fill, fragment
// and compact as they do in production. 20 000 puts and deletes of
// 8–40-byte keys with heavy duplication — a growth phase deep enough to
// split inner nodes, a shrinking phase that eats the key space from
// the low end so leaves empty and unlink, then churn — against the
// sorted-slice model. Every 100 ops each page
// the transaction touched must be a valid slotted page before it
// commits; every 1 000 the tree must verify and scan as the model.
func TestBTreeModelAtPageCapacity(t *testing.T) {
	bp, txn, _ := newTestPool(t, 512)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	key := func() []byte {
		k := btKey(rng.Intn(900))
		pad := 34 // mostly 40-byte keys, one in four anything down to 8
		if k[5]%4 == 0 {
			pad = 2 + int(k[4])%33
		}
		return append(k, bytes.Repeat([]byte{'p'}, pad)...)
	}
	var model btModel
	maxHeight, unlinked := 0, 0
	for step := 1; step <= 20000; step++ {
		putShare := 85 // growth
		switch {
		case step > 18000:
			putShare = 50
		case step > 10000:
			putShare = 12
		}
		if len(model) == 0 || rng.Intn(100) < putShare {
			k, rid := key(), RID{Page: uint32(1 + rng.Intn(30)), Slot: uint16(rng.Intn(8))}
			if err := ix.Put(txn, k, rid); err != nil {
				t.Fatalf("step %d Put: %v", step, err)
			}
			model = model.insert(k, rid)
		} else {
			e := model[rng.Intn(len(model))]
			if putShare < 50 {
				e = model[rng.Intn(min(len(model), 150))]
			}
			if rng.Intn(25) == 0 {
				e.rid.Page += 100 // absent
			}
			var want bool
			model, want = model.remove(e.key, e.rid)
			if got, err := ix.Delete(txn, e.key, e.rid); err != nil || got != want {
				t.Fatalf("step %d Delete = %v, %v; want %v", step, got, err, want)
			}
		}
		maxHeight = max(maxHeight, ix.Height())
		unlinked += len(ix.TakeReleased())
		if step%100 == 0 {
			for pid, fr := range txn.dirty {
				if err := fr.page.Validate(); err != nil {
					t.Fatalf("step %d: touched page %d: %v", step, pid, err)
				}
			}
			if _, err := bp.CommitTxn(txn); err != nil {
				t.Fatal(err)
			}
		}
		if step%1000 == 0 {
			if _, err := ix.Pages(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if ix.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model %d", step, ix.Len(), len(model))
			}
			if got := scanAll(t, ix); !sameEntries(got, model) {
				t.Fatalf("step %d: scan diverged from the model (%d vs %d entries)", step, len(got), len(model))
			}
			e := model[rng.Intn(len(model))]
			want := 0
			for _, m := range model {
				if bytes.Equal(m.key, e.key) {
					want++
				}
			}
			if got, err := ix.Get(e.key); err != nil || len(got) != want {
				t.Fatalf("step %d: Get(%q) = %d rids, %v; want %d", step, e.key, len(got), err, want)
			}
		}
	}
	if maxHeight < 3 || unlinked == 0 {
		t.Fatalf("workload too tame: height reached %d (inner splits need 3), %d leaves unlinked", maxHeight, unlinked)
	}
}

// TestBTreeCompactsBeforeSplitting: a node splits when its live entries
// outgrow a page, not when its free tail runs out. A root leaf filled to
// the brim, half emptied (all holes, no tail) and refilled must still
// be one leaf, its records contiguous again.
func TestBTreeCompactsBeforeSplitting(t *testing.T) {
	bp, txn, _ := newTestPool(t, 8)
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; ix.Height() == 1; n++ {
		if err := ix.Put(txn, btKey(n), RID{Page: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// n-1 entries fit one leaf; start over with exactly that many
	if _, err := ix.Clear(txn); err != nil {
		t.Fatal(err)
	}
	full := n - 1
	for i := 0; i < full; i++ {
		if err := ix.Put(txn, btKey(i), RID{Page: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < full; i += 2 {
		if ok, err := ix.Delete(txn, btKey(i), RID{Page: 1}); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}
	for i := 0; i < full; i += 2 {
		if err := ix.Put(txn, btKey(i), RID{Page: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Height() != 1 || ix.Len() != full {
		t.Fatalf("height %d, len %d; want one leaf of %d entries", ix.Height(), ix.Len(), full)
	}
	fr, err := bp.Get(ix.root)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(fr, false)
	p := fr.Page()
	live := 0
	p.LiveRecords(func(_ int, rec []byte) bool { live += len(rec); return true })
	if holes := p.freeStart() - pageHeaderSize - live; holes >= len(btKey(0))+7 {
		t.Fatalf("leaf holds %d bytes of holes after refilling: it never compacted", holes)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Put(txn, btKey(full), RID{Page: 1}); err != nil || ix.Height() != 2 {
		t.Fatalf("one entry past capacity: height %d, %v; want a split", ix.Height(), err)
	}
}

// TestBTreeCorruptNodes damages one node at a time. Verification
// (Pages, which store.VerifyIndexes runs) must name ErrCorruptBTree;
// Put, Get, Scan and Delete read nodes without re-validating them, so
// they may answer wrongly, but must return — no panic, no endless loop.
func TestBTreeCorruptNodes(t *testing.T) {
	build := func(t *testing.T) (*BufferPool, *Txn, *BTree, uint32, uint32) {
		bp, txn, _ := newTestPool(t, 32)
		ix, err := CreateBTree(bp, txn)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetMaxNodeEntries(6)
		for i := 0; i < 60; i++ {
			if err := ix.Put(txn, btKey(i), RID{Page: uint32(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if ix.Height() != 3 {
			t.Fatalf("height %d, want 3", ix.Height())
		}
		_, leaves, err := ix.walk()
		if err != nil {
			t.Fatal(err)
		}
		// a leaf and an inner node on the path of btKey(30)
		path, leaf, err := ix.descend(nil, btKey(30), RID{Page: 31})
		if err != nil || len(leaves) < 8 {
			t.Fatal(len(leaves), err)
		}
		return bp, txn, ix, path[1].pid, leaf
	}
	slotWord := func(p *Page, slot int) []byte { return p[PageSize-(slot+1)*slotSize : PageSize-slot*slotSize] }
	cases := []struct {
		name  string
		inner bool
		harm  func(p *Page, pid uint32)
	}{
		{"unsorted slots", false, func(p *Page, _ uint32) {
			var w [slotSize]byte
			copy(w[:], slotWord(p, 1))
			copy(slotWord(p, 1), slotWord(p, 3))
			copy(slotWord(p, 3), w[:])
		}},
		{"unsorted separators", true, func(p *Page, _ uint32) {
			var w [slotSize]byte
			copy(w[:], slotWord(p, 1))
			copy(slotWord(p, 1), slotWord(p, 2))
			copy(slotWord(p, 2), w[:])
		}},
		{"entry shorter than its key length", false, func(p *Page, _ uint32) {
			off, ln := p.slotAt(2)
			p.setSlot(2, off, ln-3)
		}},
		{"key length past the entry", false, func(p *Page, _ uint32) {
			off, _ := p.slotAt(2)
			p[off] = 0x7f
		}},
		{"child 0", true, func(p *Page, _ uint32) {
			off, ln := p.slotAt(1)
			copy(p[off+ln-4:off+ln], []byte{0, 0, 0, 0})
		}},
		{"leftmost child 0", true, func(p *Page, _ uint32) {
			off, _ := p.slotAt(0)
			copy(p[off+1:off+5], []byte{0, 0, 0, 0})
		}},
		{"slot region outside the record area", false, func(p *Page, _ uint32) { p.setSlot(2, PageSize-8, 40) }},
		{"slot region inside the page header", false, func(p *Page, _ uint32) { p.setSlot(2, 4, 12) }},
		{"tombstoned slot", false, func(p *Page, _ uint32) { p.setSlot(2, 0, 0) }},
		{"slot directory larger than the page", false, func(p *Page, _ uint32) { p.setNumSlots(2000) }},
		{"no header record", false, func(p *Page, _ uint32) { p.setNumSlots(0) }},
		{"header of the other kind", false, func(p *Page, _ uint32) {
			off, _ := p.slotAt(0)
			p[off] = btreeInnerTag
		}},
		{"inner node where a leaf belongs", true, func(p *Page, _ uint32) {
			off, _ := p.slotAt(0)
			p.setSlot(0, off, 1)
			p[off] = btreeLeafTag
		}},
		{"free start past the slot directory", false, func(p *Page, _ uint32) { p.setFreeStart(PageSize - 2) }},
		{"free start inside the records", false, func(p *Page, _ uint32) { p.setFreeStart(pageHeaderSize + 3) }},
		{"child pointing at its own node", true, func(p *Page, pid uint32) {
			off, ln := p.slotAt(1)
			binary.LittleEndian.PutUint32(p[off+ln-4:], pid)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bp, txn, ix, innerPid, leafPid := build(t)
			pid := leafPid
			if tc.inner {
				pid = innerPid
			}
			fr, err := bp.GetMut(txn, pid)
			if err != nil {
				t.Fatal(err)
			}
			tc.harm(fr.Page(), pid)
			if err := bp.Unpin(fr, true); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(tc.name, "free start") { // the free tail is no reader's business
				if _, err := ix.Pages(); !errors.Is(err, ErrCorruptBTree) {
					t.Errorf("Pages() = %v, want ErrCorruptBTree", err)
				}
			}
			// every operation returns; errors and wrong answers are both fine
			for i := 25; i < 36; i++ {
				ix.Get(btKey(i))
				ix.Delete(txn, btKey(i), RID{Page: uint32(i + 1)})
				ix.Put(txn, btKey(i), RID{Page: uint32(i + 100)})
				ix.Put(txn, btKey(i), RID{Page: uint32(i + 200)})
			}
			ix.Scan(nil, true, nil, true, func([]byte, RID) bool { return true })
			ix.Scan(btKey(20), false, btKey(40), true, func([]byte, RID) bool { return true })
			ix.Pages()
		})
	}
}
