package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the B+tree's previous node code as the reference the
// in-place implementation is tested against: every read decodes the
// whole node into freshly allocated entries (readNode, which also
// re-validates their order) and every mutation rewrites the whole page
// (writeNode). refBTree runs it over a BTree handle's pages, so either
// implementation can read and edit what the other wrote.
type refBTree struct{ *BTree }

// btEntry is one parsed node entry; child is meaningful on inner
// nodes only.
type btEntry struct {
	key   []byte
	rid   RID
	child uint32
}

// cmpEntry orders entries by the composite (key, rid.Page, rid.Slot).
func cmpEntry(a btEntry, key []byte, rid RID) int {
	if c := bytes.Compare(a.key, key); c != 0 {
		return c
	}
	if a.rid.Page != rid.Page {
		if a.rid.Page < rid.Page {
			return -1
		}
		return 1
	}
	if a.rid.Slot != rid.Slot {
		if a.rid.Slot < rid.Slot {
			return -1
		}
		return 1
	}
	return 0
}

// btNode is one parsed node page.
type btNode struct {
	leaf     bool
	leftmost uint32 // inner only
	entries  []btEntry
	next     uint32 // leaf chain
}

// readNode parses the node page pid.
func (ix refBTree) readNode(pid uint32) (*btNode, error) {
	fr, err := ix.bp.Get(pid)
	if err != nil {
		return nil, err
	}
	n := &btNode{next: fr.Page().Next()}
	var derr error
	fr.Page().LiveRecords(func(slot int, rec []byte) bool {
		if slot == 0 {
			switch {
			case len(rec) == 1 && rec[0] == btreeLeafTag:
				n.leaf = true
			case len(rec) == 5 && rec[0] == btreeInnerTag:
				n.leftmost = binary.LittleEndian.Uint32(rec[1:5])
			default:
				derr = fmt.Errorf("%w: bad node header on page %d", ErrCorrupt, pid)
				return false
			}
			return true
		}
		e, eerr := decodeBTreeEntry(rec, !n.leaf)
		if eerr != nil {
			derr = fmt.Errorf("page %d slot %d: %w", pid, slot, eerr)
			return false
		}
		n.entries = append(n.entries, e)
		return true
	})
	if uerr := ix.bp.Unpin(fr, false); uerr != nil {
		return nil, uerr
	}
	if derr != nil {
		return nil, derr
	}
	for i := 1; i < len(n.entries); i++ {
		if cmpEntry(n.entries[i-1], n.entries[i].key, n.entries[i].rid) > 0 {
			return nil, fmt.Errorf("%w: page %d entries out of order", ErrCorrupt, pid)
		}
	}
	return n, nil
}

func encodeBTreeEntry(e btEntry, inner bool) []byte {
	rec := appendIndexEntry(nil, e.key, e.rid)
	if inner {
		rec = binary.LittleEndian.AppendUint32(rec, e.child)
	}
	return rec
}

func decodeBTreeEntry(rec []byte, inner bool) (btEntry, error) {
	var e btEntry
	if inner {
		if len(rec) < 4 {
			return e, fmt.Errorf("%w: short inner entry", ErrCorrupt)
		}
		e.child = binary.LittleEndian.Uint32(rec[len(rec)-4:])
		if e.child == 0 {
			return e, fmt.Errorf("%w: inner entry with child 0", ErrCorrupt)
		}
		rec = rec[:len(rec)-4]
	}
	key, rid, err := decodeIndexEntry(rec)
	if err != nil {
		return e, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	e.key = append([]byte(nil), key...)
	e.rid = rid
	return e, nil
}

// nodeFits reports whether a node with the given entries can be
// rewritten onto one page (header record + one slot per record).
func (ix refBTree) nodeFits(entries []btEntry, inner bool) bool {
	if ix.maxEntries > 0 && len(entries) > ix.maxEntries {
		return false
	}
	hdr := 1
	if inner {
		hdr = 5
	}
	size := pageHeaderSize + hdr + slotSize
	for _, e := range entries {
		size += len(e.key) + uvarintLen(uint64(len(e.key))) + 6 + slotSize
		if inner {
			size += 4
		}
	}
	return size <= PageSize
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// writeNode rewrites page pid as a node holding exactly entries (in
// order) with the given chain link.
func (ix refBTree) writeNode(txn *Txn, pid uint32, leaf bool, leftmost uint32, entries []btEntry, next uint32) error {
	fr, err := ix.bp.GetMut(txn, pid)
	if err != nil {
		return err
	}
	p := fr.Page()
	p.Init()
	p.SetNext(next)
	hdr := []byte{btreeLeafTag}
	if !leaf {
		hdr = make([]byte, 5)
		hdr[0] = btreeInnerTag
		binary.LittleEndian.PutUint32(hdr[1:5], leftmost)
	}
	if _, err := p.Insert(hdr); err != nil {
		ix.bp.Unpin(fr, true)
		return err
	}
	for _, e := range entries {
		if _, err := p.Insert(encodeBTreeEntry(e, !leaf)); err != nil {
			ix.bp.Unpin(fr, true)
			return err
		}
	}
	return ix.bp.Unpin(fr, true)
}

// refPathEl is one step of a root-to-leaf descent: the node, its page,
// and which child slot the descent took (children are numbered with
// the leftmost pointer as 0).
type refPathEl struct {
	pid      uint32
	node     *btNode
	childIdx int
}

// descend walks from the root to the leaf that would hold (key, rid),
// returning the full path (root first, leaf last).
func (ix refBTree) descend(key []byte, rid RID) ([]refPathEl, error) {
	m, err := ix.meta(nil)
	if err != nil {
		return nil, err
	}
	path := make([]refPathEl, 0, m.height)
	pid := m.root
	for depth := 0; ; depth++ {
		if depth >= m.height {
			return nil, fmt.Errorf("%w: descent deeper than height %d", ErrCorrupt, m.height)
		}
		n, err := ix.readNode(pid)
		if err != nil {
			return nil, err
		}
		wantLeaf := depth == m.height-1
		if n.leaf != wantLeaf {
			return nil, fmt.Errorf("%w: page %d at depth %d has the wrong node kind", ErrCorrupt, pid, depth)
		}
		el := refPathEl{pid: pid, node: n}
		if n.leaf {
			path = append(path, el)
			return path, nil
		}
		// first separator strictly greater than (key, rid); the child
		// before it covers the key
		idx := sort.Search(len(n.entries), func(i int) bool {
			return cmpEntry(n.entries[i], key, rid) > 0
		})
		el.childIdx = idx
		path = append(path, el)
		if idx == 0 {
			pid = n.leftmost
		} else {
			pid = n.entries[idx-1].child
		}
		if pid == 0 {
			return nil, fmt.Errorf("%w: descent hit child 0", ErrCorrupt)
		}
	}
}

// Put inserts a key → rid entry (duplicate keys allowed) under txn,
// splitting nodes bottom-up as needed.
func (ix refBTree) Put(txn *Txn, key []byte, rid RID) error {
	if len(key) > MaxBTreeKey {
		return fmt.Errorf("storage: btree key of %d bytes exceeds the %d-byte cap", len(key), MaxBTreeKey)
	}
	path, err := ix.descend(key, rid)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	entries := leaf.node.entries
	pos := sort.Search(len(entries), func(i int) bool {
		return cmpEntry(entries[i], key, rid) > 0
	})
	entries = append(entries, btEntry{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = btEntry{key: append([]byte(nil), key...), rid: rid}

	if ix.nodeFits(entries, false) {
		return ix.writeNode(txn, leaf.pid, true, 0, entries, leaf.node.next)
	}
	return ix.splitLeaf(txn, path, entries)
}

// splitLeaf rewrites the overflowing leaf as two chained leaves and
// inserts the right half's first entry as a separator in the parent
// (growing a new root when the leaf was the root).
func (ix refBTree) splitLeaf(txn *Txn, path []refPathEl, entries []btEntry) error {
	leaf := path[len(path)-1]
	m := len(entries) / 2
	left, right := entries[:m:m], entries[m:]
	nf, err := ix.bp.NewPage(txn)
	if err != nil {
		return err
	}
	rightPid := nf.PID()
	if err := ix.bp.Unpin(nf, true); err != nil {
		return err
	}
	if err := ix.writeNode(txn, rightPid, true, 0, right, leaf.node.next); err != nil {
		return err
	}
	if err := ix.writeNode(txn, leaf.pid, true, 0, left, rightPid); err != nil {
		return err
	}
	sep := btEntry{key: right[0].key, rid: right[0].rid, child: rightPid}
	return ix.insertSeparator(txn, path[:len(path)-1], leaf.pid, sep)
}

// insertSeparator adds sep to the innermost node of path, splitting
// inner nodes (middle separator pushed up) and growing a new root as
// needed. fromChild is the page the separator's left sibling pointer
// already covers (used only when a fresh root is grown).
func (ix refBTree) insertSeparator(txn *Txn, path []refPathEl, fromChild uint32, sep btEntry) error {
	if len(path) == 0 {
		// the split node was the root: grow a new root above it
		nf, err := ix.bp.NewPage(txn)
		if err != nil {
			return err
		}
		rootPid := nf.PID()
		if err := ix.bp.Unpin(nf, true); err != nil {
			return err
		}
		if err := ix.writeNode(txn, rootPid, false, fromChild, []btEntry{sep}, 0); err != nil {
			return err
		}
		return ix.growRoot(txn, rootPid)
	}
	parent := path[len(path)-1]
	entries := parent.node.entries
	pos := sort.Search(len(entries), func(i int) bool {
		return cmpEntry(entries[i], sep.key, sep.rid) > 0
	})
	entries = append(entries, btEntry{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = sep

	if ix.nodeFits(entries, true) {
		return ix.writeNode(txn, parent.pid, false, parent.node.leftmost, entries, 0)
	}
	// split the inner node: middle separator moves up, its child
	// becomes the right node's leftmost pointer
	m := len(entries) / 2
	left, push, right := entries[:m:m], entries[m], entries[m+1:]
	nf, err := ix.bp.NewPage(txn)
	if err != nil {
		return err
	}
	rightPid := nf.PID()
	if err := ix.bp.Unpin(nf, true); err != nil {
		return err
	}
	if err := ix.writeNode(txn, rightPid, false, push.child, right, 0); err != nil {
		return err
	}
	if err := ix.writeNode(txn, parent.pid, false, parent.node.leftmost, left, 0); err != nil {
		return err
	}
	up := btEntry{key: push.key, rid: push.rid, child: rightPid}
	return ix.insertSeparator(txn, path[:len(path)-1], parent.pid, up)
}

// Delete removes one key → rid entry under txn, reporting whether it
// existed. A leaf emptied by the delete is unlinked from its parent
// and the leaf chain and queued on TakeReleased — unless it is its
// parent's leftmost child, which anchors descents and stays. Inner
// nodes never merge (Clear or drop reclaims them).
func (ix refBTree) Delete(txn *Txn, key []byte, rid RID) (bool, error) {
	path, err := ix.descend(key, rid)
	if err != nil {
		return false, err
	}
	leaf := path[len(path)-1]
	entries := leaf.node.entries
	pos := sort.Search(len(entries), func(i int) bool {
		return cmpEntry(entries[i], key, rid) >= 0
	})
	if pos >= len(entries) || cmpEntry(entries[pos], key, rid) != 0 {
		return false, nil
	}
	entries = append(entries[:pos:pos], entries[pos+1:]...)

	if len(entries) == 0 && len(path) >= 2 && path[len(path)-2].childIdx > 0 {
		if err := ix.unlinkLeaf(txn, path); err != nil {
			return false, err
		}
	} else if err := ix.writeNode(txn, leaf.pid, true, 0, entries, leaf.node.next); err != nil {
		return false, err
	}
	return true, nil
}

// unlinkLeaf splices the emptied leaf out of its parent (dropping the
// separator that routes to it) and out of the leaf chain (the left
// sibling under the same parent takes over its successor), queueing
// the page for TakeReleased. All writes ride txn, so a rollback or
// crash reverts the splice together with the delete that caused it.
func (ix refBTree) unlinkLeaf(txn *Txn, path []refPathEl) error {
	leaf := path[len(path)-1]
	parent := path[len(path)-2]
	idx := parent.childIdx // ≥ 1, checked by the caller
	var siblingPid uint32
	if idx == 1 {
		siblingPid = parent.node.leftmost
	} else {
		siblingPid = parent.node.entries[idx-2].child
	}
	entries := append(parent.node.entries[:idx-1:idx-1], parent.node.entries[idx:]...)
	if err := ix.writeNode(txn, parent.pid, false, parent.node.leftmost, entries, 0); err != nil {
		return err
	}
	fr, err := ix.bp.GetMut(txn, siblingPid)
	if err != nil {
		return err
	}
	fr.Page().SetNext(leaf.node.next)
	if err := ix.bp.Unpin(fr, true); err != nil {
		return err
	}
	ix.released = append(ix.released, leaf.pid)
	return nil
}

// leafEntries returns the tree's entries leaf by leaf, decoded by the
// reference reader.
func leafEntries(t *testing.T, ix *BTree) [][]btEntry {
	t.Helper()
	var out [][]btEntry
	for pid := metaOf(t, ix).firstLeaf; pid != 0; {
		n, err := refBTree{ix}.readNode(pid)
		if err != nil {
			t.Fatalf("reference reader on page %d: %v", pid, err)
		}
		if !n.leaf {
			t.Fatalf("page %d on the leaf chain is not a leaf", pid)
		}
		out = append(out, n.entries)
		pid = n.next
	}
	return out
}

// metaOf reads the tree's meta record.
func metaOf(t testing.TB, ix *BTree) btreeMeta {
	t.Helper()
	m, err := ix.meta(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBTreeMatchesReference drives the in-place tree and the reference
// with one op stream — at page capacity and with a small node cap — and
// requires, after every op, the same answer, meta record and page
// allocation (so splits and unlinks happen at the same ops), and
// at intervals the same entries in every leaf and the same page counts
// by role. A third tree is edited by both implementations in turn.
func TestBTreeMatchesReference(t *testing.T) {
	for _, maxEntries := range []int{0, 5} {
		t.Run(fmt.Sprintf("cap%d", maxEntries), func(t *testing.T) {
			type side struct {
				bp  *BufferPool
				txn *Txn
				ix  *BTree
			}
			var sides [3]side // in place, reference, alternating
			for i := range sides {
				bp, txn, _ := newTestPool(t, 64)
				ix, err := CreateBTree(bp, txn)
				if err != nil {
					t.Fatal(err)
				}
				ix.SetMaxNodeEntries(maxEntries)
				sides[i] = side{bp, txn, ix}
			}
			put := func(s side, ref bool, key []byte, rid RID) error {
				if ref {
					return refBTree{s.ix}.Put(s.txn, key, rid)
				}
				return s.ix.Put(s.txn, key, rid)
			}
			del := func(s side, ref bool, key []byte, rid RID) (bool, error) {
				if ref {
					return refBTree{s.ix}.Delete(s.txn, key, rid)
				}
				return s.ix.Delete(s.txn, key, rid)
			}
			rng := rand.New(rand.NewSource(int64(31 + maxEntries)))
			var model btModel
			steps := 12000
			if maxEntries > 0 {
				steps = 3000
			}
			for step := 0; step < steps; step++ {
				useRef := [3]bool{false, true, step%2 == 1}
				// phases of growth and of shrinking, so leaves empty and unlink
				putShare := 7
				if (step/1500)%2 == 1 {
					putShare = 3
				}
				if len(model) == 0 || rng.Intn(10) < putShare {
					key := append(btKey(rng.Intn(300)), bytes.Repeat([]byte{'x'}, rng.Intn(30))...)
					rid := RID{Page: uint32(1 + rng.Intn(40)), Slot: uint16(rng.Intn(4))}
					for i, s := range sides {
						if err := put(s, useRef[i], key, rid); err != nil {
							t.Fatalf("step %d side %d Put: %v", step, i, err)
						}
					}
					model = model.insert(key, rid)
				} else {
					e := model[rng.Intn(len(model))]
					if rng.Intn(20) == 0 {
						e.rid.Slot += 9 // absent
					}
					var want bool
					model, want = model.remove(e.key, e.rid)
					for i, s := range sides {
						got, err := del(s, useRef[i], e.key, e.rid)
						if err != nil || got != want {
							t.Fatalf("step %d side %d Delete = %v, %v; want %v", step, i, got, err, want)
						}
					}
				}
				a := sides[0]
				am := metaOf(t, a.ix)
				for i, s := range sides[1:] {
					if sm := metaOf(t, s.ix); sm != am || s.bp.pager.NumPages() != a.bp.pager.NumPages() || len(s.ix.released) != len(a.ix.released) {
						t.Fatalf("step %d: side %d shape diverged: meta %+v/%+v pages %d/%d released %d/%d", step, i+1,
							sm, am, s.bp.pager.NumPages(), a.bp.pager.NumPages(), len(s.ix.released), len(a.ix.released))
					}
				}
				if step%97 != 0 && step != steps-1 {
					continue
				}
				want := leafEntries(t, a.ix)
				ai, al, err := a.ix.PageCounts()
				if err != nil {
					t.Fatalf("step %d: in-place tree fails verification: %v", step, err)
				}
				for i, s := range sides[1:] {
					got := leafEntries(t, s.ix)
					if len(got) != len(want) {
						t.Fatalf("step %d: side %d has %d leaves, in-place tree %d", step, i+1, len(got), len(want))
					}
					for j := range got {
						if !sameEntries(got[j], want[j]) {
							t.Fatalf("step %d: side %d leaf %d holds %d entries, in-place tree %d (or they differ)", step, i+1, j, len(got[j]), len(want[j]))
						}
					}
					// the in-place reader on the pages the reference wrote
					if si, sl, err := s.ix.PageCounts(); err != nil || si != ai || sl != al {
						t.Fatalf("step %d: side %d page counts %d+%d (%v), in-place tree %d+%d", step, i+1, si, sl, err, ai, al)
					}
					if got := scanAll(t, s.ix); !sameEntries(got, model) {
						t.Fatalf("step %d: side %d scan diverged from the model", step, i+1)
					}
				}
				if got := scanAll(t, a.ix); !sameEntries(got, model) {
					t.Fatalf("step %d: in-place scan diverged from the model", step)
				}
			}
			if a := sides[0].ix; a.Height() < 2 || len(a.released) == 0 {
				t.Fatalf("workload too tame: height %d, %d leaves unlinked", a.Height(), len(a.released))
			}
		})
	}
}
