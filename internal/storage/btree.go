package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// This file is the store's one index structure: a paged B+tree
// mapping byte-string keys (memcomparable — the store encodes atoms
// with encoding.AppendOrderedAtom so bytes.Compare IS value.Compare)
// to record ids, with duplicates allowed. It answers equality probes
// (Get), range scans (Scan) and, through Get, the store's search for a
// delete's victim record. Every page is an ordinary checksummed slotted
// page and every mutation goes through GetMut/NewPage under a Txn, so
// splits and unlinks ride the same no-steal dirty sets, merged group
// commits, and full-page-image redo as heap pages — the tree needs zero
// new recovery protocol.
//
// Layout:
//
//	meta page   record 0: 'B' root:u32 height:u16 count:u64
//	            firstLeaf:u32 (fixed 19 bytes, updated in place —
//	            the page id persisted in the catalog, so a root
//	            split never moves the catalog-recorded handle).
//	leaf page   record 0: 'L'; records 1..n are entries sorted by
//	            (key, rid): keyLen:uvarint key rid.Page:u32
//	            rid.Slot:u16 (the entry codec of diskindex.go). Leaves
//	            are chained left-to-right through the page Next field.
//	inner page  record 0: 'I' leftmostChild:u32; records 1..n are
//	            separator entries (same codec + child:u32), sorted.
//	            The subtree under child i of [leftmost, e1.child, …]
//	            holds entries ≥ separator i−1 and < separator i.
//
// Entries are ordered by the composite (key, rid.Page, rid.Slot), so
// duplicate keys need no overflow machinery: separators are full
// composites and always split a duplicate run cleanly.
//
// Nodes are read and edited in place. Slot order is key order, so a
// descent is a binary search over the slot directory against the record
// bytes in the page; Put appends the one encoded entry at the page's
// free tail and shifts the directory words behind its position, Delete
// drops the one directory word and leaves the record's bytes as a hole.
// Where a record's bytes sit inside the page therefore carries no
// meaning. A node whose free tail is too short for an entry that its
// live records leave room for is compacted first; a node splits exactly
// when its live records plus the entry exceed a page, whatever its
// holes, so tree shape is a function of the entries alone. Only a split
// (both halves) and Clear rewrite a node wholesale. The WAL's delta
// records diff a page against its previous committed image, so a leaf
// edit logs the new entry and the shifted directory words.
//
// Shrinking is pragmatic: a leaf emptied by deletes is unlinked from
// its parent and chain and handed to TakeReleased for the free list,
// unless it is its parent's leftmost child (the descent anchor). Inner
// pages never merge: they are reclaimed only by Clear (rebuild) or drop.

const (
	btreeMetaTag  = 'B'
	btreeMetaLen  = 19
	btreeLeafTag  = 'L'
	btreeInnerTag = 'I'

	// MaxBTreeKey caps key length so any two entries plus a node header
	// always fit one page — the minimum fan-out a split requires.
	MaxBTreeKey = 2000
)

// ErrCorruptBTree wraps structural damage found in a paged B+tree
// (bad meta or node header, malformed entry, cyclic or cross-linked
// pages, unsorted node).
var ErrCorruptBTree = errors.New("storage: corrupt btree index")

// BTree is a durable ordered index: memcomparable byte-string keys
// mapped to record ids (duplicates allowed), stored in slotted pages
// behind a buffer pool. The struct is only a small mirror of the meta
// record; all entries live in node pages. Callers serialize access per
// tree — the store does so under its per-shard lock.
type BTree struct {
	bp        *BufferPool
	metaPid   uint32 // the persistent handle (Root())
	root      uint32 // current root node page
	height    int    // 1 = the root is a leaf
	count     int
	firstLeaf uint32
	// maxEntries, when > 0, caps how many entries a node may hold
	// before an insert splits it (tests use it to force deep trees from
	// tiny workloads; 0 = page capacity decides).
	maxEntries int
	// released accumulates leaves emptied by deletes and unlinked from
	// the tree, until the owner drains them via TakeReleased.
	released []uint32
}

// cmpKeyRID orders (ak, ar) against (key, rid) by the composite
// (key, rid.Page, rid.Slot).
func cmpKeyRID(ak []byte, ar RID, key []byte, rid RID) int {
	if c := bytes.Compare(ak, key); c != 0 {
		return c
	}
	if c := cmp.Compare(ar.Page, rid.Page); c != 0 {
		return c
	}
	return cmp.Compare(ar.Slot, rid.Slot)
}

// CreateBTree allocates a fresh empty tree (meta page + one empty root
// leaf) under txn. Persist Root() to reattach later.
func CreateBTree(bp *BufferPool, txn *Txn) (*BTree, error) {
	ix := &BTree{bp: bp, height: 1}
	mf, err := bp.NewPage(txn)
	if err != nil {
		return nil, err
	}
	ix.metaPid = mf.PID()
	lf, err := bp.NewPage(txn)
	if err != nil {
		bp.Unpin(mf, true)
		return nil, err
	}
	ix.root = lf.PID()
	ix.firstLeaf = lf.PID()
	if _, err := lf.Page().Insert([]byte{btreeLeafTag}); err != nil {
		bp.Unpin(lf, true)
		bp.Unpin(mf, true)
		return nil, err
	}
	if err := bp.Unpin(lf, true); err != nil {
		bp.Unpin(mf, true)
		return nil, err
	}
	if _, err := mf.Page().Insert(ix.metaBytes()); err != nil {
		bp.Unpin(mf, true)
		return nil, err
	}
	return ix, bp.Unpin(mf, true)
}

// OpenBTree attaches to the tree whose meta page is root — one page
// read, never the nodes.
func OpenBTree(bp *BufferPool, root uint32) (*BTree, error) {
	ix := &BTree{bp: bp, metaPid: root}
	if err := ix.load(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Refresh re-reads the meta record, discarding the in-memory mirror.
// Callers use it after a transaction rollback reverted uncommitted
// index frames.
func (ix *BTree) Refresh() error {
	// pages unlinked under a since-rolled-back txn are back on the tree;
	// handing them to a free list now would double-own them
	ix.released = nil
	return ix.load()
}

func (ix *BTree) load() error {
	fr, err := ix.bp.Get(ix.metaPid)
	if err != nil {
		return err
	}
	rec, gerr := fr.Page().Get(0)
	var meta []byte
	if gerr == nil {
		meta = append([]byte(nil), rec...)
	}
	if err := ix.bp.Unpin(fr, false); err != nil {
		return err
	}
	if gerr != nil || len(meta) != btreeMetaLen || meta[0] != btreeMetaTag {
		return fmt.Errorf("%w: bad meta record on page %d", ErrCorruptBTree, ix.metaPid)
	}
	root := binary.LittleEndian.Uint32(meta[1:5])
	height := int(binary.LittleEndian.Uint16(meta[5:7]))
	count := binary.LittleEndian.Uint64(meta[7:15])
	first := binary.LittleEndian.Uint32(meta[15:19])
	if root == 0 || first == 0 || height < 1 || height > 64 || count > 1<<50 {
		return fmt.Errorf("%w: impossible meta (root %d, height %d, count %d, first leaf %d)",
			ErrCorruptBTree, root, height, count, first)
	}
	ix.root, ix.height, ix.count, ix.firstLeaf = root, height, int(count), first
	return nil
}

func (ix *BTree) metaBytes() []byte {
	b := make([]byte, btreeMetaLen)
	b[0] = btreeMetaTag
	binary.LittleEndian.PutUint32(b[1:5], ix.root)
	binary.LittleEndian.PutUint16(b[5:7], uint16(ix.height))
	binary.LittleEndian.PutUint64(b[7:15], uint64(ix.count))
	binary.LittleEndian.PutUint32(b[15:19], ix.firstLeaf)
	return b
}

// deferMeta schedules one meta flush for the transaction: mutations
// update only the in-memory mirror and the meta page is written once
// at commit, so every Put/Delete stops re-logging the meta page for
// its in-place count update.
func (ix *BTree) deferMeta(txn *Txn) { txn.Defer(ix, ix.writeMeta) }

// writeMeta overwrites the meta record in place (fixed size, the slot
// never moves) so the persisted shape follows every mutation within
// the same transaction. It runs as deferred commit work (see
// deferMeta), not per mutation.
func (ix *BTree) writeMeta(txn *Txn) error {
	fr, err := ix.bp.GetMut(txn, ix.metaPid)
	if err != nil {
		return err
	}
	rec, gerr := fr.Page().Get(0)
	if gerr != nil || len(rec) != btreeMetaLen || rec[0] != btreeMetaTag {
		ix.bp.Unpin(fr, false)
		return fmt.Errorf("%w: meta record missing from page %d", ErrCorruptBTree, ix.metaPid)
	}
	copy(rec, ix.metaBytes())
	return ix.bp.Unpin(fr, true)
}

// Root returns the meta page id (persist this to reattach with
// OpenBTree); it never changes, even across root splits.
func (ix *BTree) Root() uint32 { return ix.metaPid }

// Len returns the number of stored entries.
func (ix *BTree) Len() int { return ix.count }

// Height returns the number of node levels (1 = the root is a leaf).
func (ix *BTree) Height() int { return ix.height }

// SetMaxNodeEntries caps how many entries a node may hold before an
// insert splits it (0 restores the default: page capacity decides).
// Only split TIMING changes — the on-disk structure stays
// self-describing — so tests use it to build deep trees from tiny
// workloads. Values below 2 are clamped to 2 (a split needs a
// non-empty half on each side).
func (ix *BTree) SetMaxNodeEntries(n int) {
	if n > 0 && n < 2 {
		n = 2
	}
	ix.maxEntries = n
}

// node is one node page viewed in place; the frame behind p must stay
// pinned for as long as the view, or any key it returned, is in use.
type node struct {
	p     *Page
	pid   uint32
	inner bool
	n     int // entries: slots 1..n, slot 0 is the header record
}

// pin pins page pid — for mutation under txn, or for reading when txn
// is nil — and views it as a node of the given kind. Only the header
// is checked up front: entries are checked as they are touched, and
// whole-node order by walk.
func (ix *BTree) pin(txn *Txn, pid uint32, inner bool) (*Frame, node, error) {
	var fr *Frame
	var err error
	if txn != nil {
		fr, err = ix.bp.GetMut(txn, pid)
	} else {
		fr, err = ix.bp.Get(pid)
	}
	if err != nil {
		return nil, node{}, err
	}
	p := fr.Page()
	nd := node{p: p, pid: pid, inner: inner, n: p.numSlots() - 1}
	if nd.n < 0 || pageHeaderSize+p.numSlots()*slotSize > PageSize {
		err = fmt.Errorf("%w: page %d has an impossible slot directory", ErrCorruptBTree, pid)
	} else if hdr, herr := nd.rec(0); herr != nil {
		err = herr
	} else if leaf := len(hdr) == 1 && hdr[0] == btreeLeafTag; !leaf && !(len(hdr) == 5 && hdr[0] == btreeInnerTag) {
		err = fmt.Errorf("%w: bad node header on page %d", ErrCorruptBTree, pid)
	} else if leaf == inner {
		err = fmt.Errorf("%w: page %d has the wrong node kind for its depth", ErrCorruptBTree, pid)
	}
	if err != nil {
		ix.bp.Unpin(fr, false)
		return nil, node{}, err
	}
	return fr, nd, nil
}

// release unpins fr and returns err, or the unpin's own failure when
// err is nil.
func (ix *BTree) release(fr *Frame, dirty bool, err error) error {
	if uerr := ix.bp.Unpin(fr, dirty); err == nil {
		return uerr
	}
	return err
}

// rec returns the bytes of slot i, refusing a slot that points outside
// the record area (a tombstone included: nodes have none).
func (nd node) rec(i int) ([]byte, error) {
	off, ln := nd.p.slotAt(i)
	if off < pageHeaderSize || off+ln > PageSize-nd.p.numSlots()*slotSize {
		return nil, fmt.Errorf("%w: page %d slot %d region [%d,%d) outside the record area", ErrCorruptBTree, nd.pid, i, off, off+ln)
	}
	return nd.p[off : off+ln], nil
}

// leftmost returns an inner node's leftmost child.
func (nd node) leftmost() uint32 {
	hdr, _ := nd.rec(0) // pin read it
	return binary.LittleEndian.Uint32(hdr[1:5])
}

// splitChild splits an inner node's entry record into the (key, rid)
// encoding and the child; a leaf's record is returned whole.
func (nd node) splitChild(rec []byte) ([]byte, uint32, error) {
	if !nd.inner {
		return rec, 0, nil
	}
	if len(rec) < 4 {
		return nil, 0, fmt.Errorf("%w: page %d: short inner entry", ErrCorruptBTree, nd.pid)
	}
	child := binary.LittleEndian.Uint32(rec[len(rec)-4:])
	if child == 0 {
		return nil, 0, fmt.Errorf("%w: page %d: inner entry with child 0", ErrCorruptBTree, nd.pid)
	}
	return rec[:len(rec)-4], child, nil
}

// entry decodes entry i (0-based) in place; key aliases the page and
// child is meaningful on inner nodes only.
func (nd node) entry(i int) (key []byte, rid RID, child uint32, err error) {
	rec, err := nd.rec(i + 1)
	if err == nil {
		rec, child, err = nd.splitChild(rec)
	}
	if err == nil {
		if key, rid, err = decodeIndexEntry(rec); err != nil {
			err = fmt.Errorf("%w: page %d slot %d: %v", ErrCorruptBTree, nd.pid, i+1, err)
		}
	}
	return key, rid, child, err
}

// search returns the index of the first entry greater than (key, rid),
// or with orEqual the first one not less: a binary search over the slot
// directory that trusts the node's order (walk verifies it).
func (nd node) search(key []byte, rid RID, orEqual bool) (int, error) {
	lo, hi := 0, nd.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, r, _, err := nd.entry(mid)
		if err != nil {
			return 0, err
		}
		if c := cmpKeyRID(k, r, key, rid); c < 0 || (c == 0 && !orEqual) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// fits reports whether the node's live records plus one more of recLen
// bytes fit a page — the split criterion, independent of how the
// records happen to be laid out (holes do not count).
func (nd node) fits(recLen int) (bool, error) {
	if nd.p.FreeSpace() >= recLen+slotSize {
		return true, nil // fits the free tail as the page stands
	}
	size := pageHeaderSize + (nd.n+2)*slotSize + recLen
	for i := 0; i <= nd.n; i++ {
		rec, err := nd.rec(i)
		if err != nil {
			return false, err
		}
		size += len(rec)
	}
	return size <= PageSize, nil
}

// writeNode rewrites p wholesale as a node holding hdr and recs (in
// order) with the given chain link.
func writeNode(p *Page, hdr []byte, next uint32, recs [][]byte) error {
	p.Init()
	p.SetNext(next)
	err := p.InsertAt(0, hdr)
	for i := 0; i < len(recs) && err == nil; i++ {
		err = p.InsertAt(i+1, recs[i])
	}
	return err
}

func innerHeader(leftmost uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{btreeInnerTag}, leftmost)
}

// pathEl is one inner step of a root-to-leaf descent: the node's page
// and which child the descent took (children are numbered with the
// leftmost pointer as 0).
type pathEl struct {
	pid      uint32
	childIdx int
}

// descend walks from the root to the leaf that would hold (key, rid),
// appending the inner nodes it passed (root first) to path and
// returning the leaf's page.
func (ix *BTree) descend(path []pathEl, key []byte, rid RID) ([]pathEl, uint32, error) {
	pid := ix.root
	for depth := 0; depth < ix.height-1; depth++ {
		fr, nd, err := ix.pin(nil, pid, true)
		if err != nil {
			return nil, 0, err
		}
		// first separator strictly greater than (key, rid); the child
		// before it covers the key
		idx, err := nd.search(key, rid, false)
		child := nd.leftmost()
		if err == nil && idx > 0 {
			_, _, child, err = nd.entry(idx - 1)
		}
		if err == nil && child == 0 {
			err = fmt.Errorf("%w: descent hit child 0 on page %d", ErrCorruptBTree, pid)
		}
		if err = ix.release(fr, false, err); err != nil {
			return nil, 0, err
		}
		path = append(path, pathEl{pid: pid, childIdx: idx})
		pid = child
	}
	return path, pid, nil
}

// Put inserts a key → rid entry (duplicate keys allowed) under txn,
// splitting nodes bottom-up as needed, and persists the updated meta.
func (ix *BTree) Put(txn *Txn, key []byte, rid RID) error {
	if len(key) > MaxBTreeKey {
		return fmt.Errorf("storage: btree key of %d bytes exceeds the %d-byte cap", len(key), MaxBTreeKey)
	}
	var pbuf [8]pathEl
	path, leafPid, err := ix.descend(pbuf[:0], key, rid)
	if err != nil {
		return err
	}
	fr, nd, err := ix.pin(txn, leafPid, false)
	if err != nil {
		return err
	}
	var ebuf [64]byte
	if err := ix.insertEntry(txn, path, fr, nd, appendIndexEntry(ebuf[:0], key, rid)); err != nil {
		return err
	}
	ix.count++
	ix.deferMeta(txn)
	return nil
}

// insertEntry adds the encoded entry rec to the node behind fr at its
// sorted position and unpins fr. A node the entry does not fit is
// split, which inserts a separator into the parent, the last element of
// path, the same way.
func (ix *BTree) insertEntry(txn *Txn, path []pathEl, fr *Frame, nd node, rec []byte) error {
	pos, fits := 0, false
	keyRID, _, err := nd.splitChild(rec)
	if err == nil {
		key, rid, _ := decodeIndexEntry(keyRID) // the caller encoded it
		pos, err = nd.search(key, rid, false)
	}
	if err == nil {
		fits, err = nd.fits(len(rec))
	}
	if err != nil {
		return ix.release(fr, false, err)
	}
	if !fits || (ix.maxEntries > 0 && nd.n >= ix.maxEntries) {
		return ix.split(txn, path, fr, nd, pos, rec)
	}
	if nd.p.FreeSpace() < len(rec)+slotSize {
		nd.p.Compact() // the room is there, in holes
	}
	return ix.release(fr, true, nd.p.InsertAt(pos+1, rec))
}

// split rewrites the node behind fr, with rec added at entry position
// pos, as two nodes and unpins fr. A leaf becomes two chained leaves
// and the right half's first entry goes up as the separator; an inner
// node pushes its middle separator up, whose child becomes the right
// node's leftmost pointer. A split root grows a new root above it.
func (ix *BTree) split(txn *Txn, path []pathEl, fr *Frame, nd node, pos int, rec []byte) error {
	// both halves are written from a copy of the node as it was
	old, src := *nd.p, nd
	src.p = &old
	recs := make([][]byte, 0, nd.n+1)
	for i := 0; i < nd.n; i++ {
		if _, _, _, err := src.entry(i); err != nil {
			return ix.release(fr, false, err)
		}
		r, _ := src.rec(i + 1)
		recs = append(recs, r)
	}
	recs = slices.Insert(recs, pos, rec)
	m := len(recs) / 2
	nf, err := ix.bp.NewPage(txn)
	if err != nil {
		return ix.release(fr, false, err)
	}
	rightPid := nf.PID()
	// up becomes the parent's separator: recs[m]'s key and rid, routing
	// to the right node
	up, right := recs[m], recs[m:]
	leftHdr, rightHdr, leftNext := []byte{btreeLeafTag}, []byte{btreeLeafTag}, rightPid
	if nd.inner {
		var child uint32
		up, child, _ = nd.splitChild(up)
		right = recs[m+1:]
		leftHdr, rightHdr, leftNext = innerHeader(src.leftmost()), innerHeader(child), 0
	}
	up = binary.LittleEndian.AppendUint32(bytes.Clone(up), rightPid)
	err = ix.release(nf, true, writeNode(nf.Page(), rightHdr, old.Next(), right))
	if err == nil {
		err = writeNode(nd.p, leftHdr, leftNext, recs[:m])
	}
	if err = ix.release(fr, true, err); err != nil {
		return err
	}
	if len(path) == 0 {
		// the split node was the root: grow a new root above it
		rf, err := ix.bp.NewPage(txn)
		if err != nil {
			return err
		}
		if err = ix.release(rf, true, writeNode(rf.Page(), innerHeader(nd.pid), 0, [][]byte{up})); err == nil {
			ix.root = rf.PID()
			ix.height++
		}
		return err
	}
	pf, pn, err := ix.pin(txn, path[len(path)-1].pid, true)
	if err != nil {
		return err
	}
	return ix.insertEntry(txn, path[:len(path)-1], pf, pn, up)
}

// Delete removes one key → rid entry under txn, reporting whether it
// existed. A leaf emptied by the delete is unlinked from its parent
// and the leaf chain and queued on TakeReleased — unless it is its
// parent's leftmost child, which anchors descents and stays. Inner
// nodes never merge (Clear or drop reclaims them).
func (ix *BTree) Delete(txn *Txn, key []byte, rid RID) (bool, error) {
	var pbuf [8]pathEl
	path, leafPid, err := ix.descend(pbuf[:0], key, rid)
	if err != nil {
		return false, err
	}
	fr, nd, err := ix.pin(txn, leafPid, false)
	if err != nil {
		return false, err
	}
	found := false
	pos, err := nd.search(key, rid, true)
	if err == nil && pos < nd.n {
		var k []byte
		var r RID
		k, r, _, err = nd.entry(pos)
		found = err == nil && cmpKeyRID(k, r, key, rid) == 0
	}
	// an emptied leaf leaves the tree with its page as it is
	unlink := found && nd.n == 1 && len(path) > 0 && path[len(path)-1].childIdx > 0
	next := nd.p.Next()
	if found && !unlink {
		nd.p.DeleteAt(pos + 1)
	}
	if err = ix.release(fr, found && !unlink, err); err != nil || !found {
		return false, err
	}
	if unlink {
		if err := ix.unlinkLeaf(txn, path[len(path)-1], leafPid, next); err != nil {
			return false, err
		}
	}
	ix.count--
	ix.deferMeta(txn)
	return true, nil
}

// unlinkLeaf splices the emptied leaf out of its parent (dropping the
// separator that routes to it) and out of the leaf chain (the left
// sibling under the same parent takes over its successor next),
// queueing the page for TakeReleased. All writes ride txn, so a
// rollback or crash reverts the splice together with the delete that
// caused it.
func (ix *BTree) unlinkLeaf(txn *Txn, parent pathEl, leafPid, next uint32) error {
	pf, pn, err := ix.pin(txn, parent.pid, true)
	if err != nil {
		return err
	}
	idx := parent.childIdx // ≥ 1, checked by the caller
	siblingPid := pn.leftmost()
	if idx > pn.n {
		err = fmt.Errorf("%w: page %d lost the separator of leaf %d", ErrCorruptBTree, parent.pid, leafPid)
	} else if idx > 1 {
		_, _, siblingPid, err = pn.entry(idx - 2)
	}
	if err == nil {
		pn.p.DeleteAt(idx)
	}
	if err = ix.release(pf, err == nil, err); err != nil {
		return err
	}
	fr, err := ix.bp.GetMut(txn, siblingPid)
	if err != nil {
		return err
	}
	fr.Page().SetNext(next)
	if err := ix.bp.Unpin(fr, true); err != nil {
		return err
	}
	ix.released = append(ix.released, leafPid)
	return nil
}

// TakeReleased drains the leaves shed by deletes since the last call.
// The caller must hand them to a free list (or accept them as orphans
// for the open-time sweep); they are no longer reachable from the
// tree.
func (ix *BTree) TakeReleased() []uint32 {
	out := ix.released
	ix.released = nil
	return out
}

// Scan walks entries in (key, rid) order within [lo, hi] — nil bounds
// are unbounded, loIncl/hiIncl pick open or closed ends (key-level:
// every rid under a boundary key is included or excluded together) —
// calling fn until it returns false or the range ends. key is a view
// into the pinned leaf, valid only during the call. It returns how
// many index pages the scan touched (descent nodes plus visited
// leaves): the planner's page-read claim, gated by the range bench.
func (ix *BTree) Scan(lo []byte, loIncl bool, hi []byte, hiIncl bool, fn func(key []byte, rid RID) bool) (int, error) {
	pages := 0
	leafPid := ix.firstLeaf
	if lo != nil {
		var pbuf [8]pathEl
		path, pid, err := ix.descend(pbuf[:0], lo, RID{})
		if err != nil {
			return 0, err
		}
		pages += len(path)
		leafPid = pid
	}
	limit := int(ix.bp.pager.NumPages()) + 1
	for steps := 0; leafPid != 0; steps++ {
		if steps > limit {
			return pages, fmt.Errorf("%w: leaf chain cycle at page %d", ErrCorruptBTree, leafPid)
		}
		pages++
		fr, nd, err := ix.pin(nil, leafPid, false)
		if err != nil {
			return pages, err
		}
		more, err := scanLeaf(nd, steps == 0, lo, loIncl, hi, hiIncl, fn)
		leafPid = nd.p.Next()
		if err = ix.release(fr, false, err); err != nil || !more {
			return pages, err
		}
	}
	return pages, nil
}

// scanLeaf feeds one leaf's entries within the bounds to fn, reporting
// whether the scan goes on to the next leaf. The first leaf of a scan
// starts at lo's lower bound; later leaves hold nothing below it.
func scanLeaf(nd node, first bool, lo []byte, loIncl bool, hi []byte, hiIncl bool, fn func(key []byte, rid RID) bool) (bool, error) {
	i := 0
	if first && lo != nil {
		var err error
		if i, err = nd.search(lo, RID{}, true); err != nil {
			return false, err
		}
	}
	for ; i < nd.n; i++ {
		key, rid, _, err := nd.entry(i)
		if err != nil {
			return false, err
		}
		if lo != nil && !loIncl && bytes.Equal(key, lo) {
			continue
		}
		if hi != nil {
			if c := bytes.Compare(key, hi); c > 0 || (c == 0 && !hiIncl) {
				return false, nil
			}
		}
		if !fn(key, rid) {
			return false, nil
		}
	}
	return true, nil
}

// Get returns every rid stored under key.
func (ix *BTree) Get(key []byte) ([]RID, error) {
	var out []RID
	if _, err := ix.Scan(key, true, key, true, func(_ []byte, rid RID) bool {
		out = append(out, rid)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Pages returns every page the tree owns — meta plus all nodes — for
// drop-time reclamation and the open-time orphan sweep, verifying on
// the way that no page appears twice, node kinds match their depth,
// every node's entries decode and are in order, and the leaf chain
// visits exactly the tree's leaves in tree order.
func (ix *BTree) Pages() ([]uint32, error) {
	inner, leaves, err := ix.walk()
	if err != nil {
		return nil, err
	}
	out := append([]uint32{ix.metaPid}, inner...)
	return append(out, leaves...), nil
}

// PageCounts reports the tree's page footprint split by role: inner
// pages (including a leaf root's zero) and leaf pages. The meta page
// is counted as inner — it is the directory analogue.
func (ix *BTree) PageCounts() (innerPages, leafPages int, err error) {
	inner, leaves, err := ix.walk()
	if err != nil {
		return 0, 0, err
	}
	return len(inner) + 1, len(leaves), nil
}

// checkNode verifies what descents take on trust: every entry of the
// node decodes and the entries are in (key, rid) order. It returns the
// node's children (nil for a leaf), entry count and chain link.
func (ix *BTree) checkNode(pid uint32, leaf bool) (children []uint32, entries int, next uint32, err error) {
	fr, nd, err := ix.pin(nil, pid, !leaf)
	if err != nil {
		return nil, 0, 0, err
	}
	defer ix.bp.Unpin(fr, false)
	if nd.inner {
		children = append(make([]uint32, 0, nd.n+1), nd.leftmost())
	}
	var prevKey []byte
	var prevRID RID
	for i := 0; i < nd.n; i++ {
		key, rid, child, err := nd.entry(i)
		if err != nil {
			return nil, 0, 0, err
		}
		if i > 0 && cmpKeyRID(prevKey, prevRID, key, rid) > 0 {
			return nil, 0, 0, fmt.Errorf("%w: page %d entries out of order", ErrCorruptBTree, pid)
		}
		prevKey, prevRID = key, rid
		if nd.inner {
			children = append(children, child)
		}
	}
	return children, nd.n, nd.p.Next(), nil
}

// walk traverses the whole tree, returning inner and leaf page ids in
// tree order and validating structure: kinds match depth, nodes are
// well-formed and sorted, no page is shared, the chain from firstLeaf
// is exactly the leaf sequence, and the leaf entry total matches the
// meta count.
func (ix *BTree) walk() (inner, leaves []uint32, err error) {
	seen := map[uint32]bool{ix.metaPid: true}
	entryTotal := 0
	var chain []uint32 // leaves[i]'s chain link
	var rec func(pid uint32, depth int) error
	rec = func(pid uint32, depth int) error {
		if pid == 0 || seen[pid] {
			return fmt.Errorf("%w: page %d reached twice (or zero)", ErrCorruptBTree, pid)
		}
		seen[pid] = true
		children, n, next, err := ix.checkNode(pid, depth == ix.height-1)
		if err != nil {
			return err
		}
		if children == nil { // a leaf
			leaves = append(leaves, pid)
			chain = append(chain, next)
			entryTotal += n
			return nil
		}
		inner = append(inner, pid)
		for _, child := range children {
			if err := rec(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(ix.root, 0); err != nil {
		return nil, nil, err
	}
	if entryTotal != ix.count {
		return nil, nil, fmt.Errorf("%w: leaves hold %d entries, meta says %d", ErrCorruptBTree, entryTotal, ix.count)
	}
	// the chain must visit exactly the leaves, in tree order
	pid := ix.firstLeaf
	for i := 0; ; i++ {
		if pid == 0 {
			if i != len(leaves) {
				return nil, nil, fmt.Errorf("%w: leaf chain ends after %d of %d leaves", ErrCorruptBTree, i, len(leaves))
			}
			return inner, leaves, nil
		}
		if i >= len(leaves) || leaves[i] != pid {
			return nil, nil, fmt.Errorf("%w: leaf chain diverges from the tree at page %d", ErrCorruptBTree, pid)
		}
		pid = chain[i]
	}
}

// Clear resets the tree to empty under txn, reusing the meta page and
// the first leaf as the new empty root and returning every other page
// for the caller to reclaim.
func (ix *BTree) Clear(txn *Txn) ([]uint32, error) {
	all, err := ix.Pages()
	if err != nil {
		return nil, err
	}
	var released []uint32
	for _, pid := range all {
		if pid != ix.metaPid && pid != ix.firstLeaf {
			released = append(released, pid)
		}
	}
	fr, err := ix.bp.GetMut(txn, ix.firstLeaf)
	if err != nil {
		return nil, err
	}
	if err := ix.release(fr, true, writeNode(fr.Page(), []byte{btreeLeafTag}, 0, nil)); err != nil {
		return nil, err
	}
	ix.root = ix.firstLeaf
	ix.height = 1
	ix.count = 0
	if err := ix.writeMeta(txn); err != nil {
		return nil, err
	}
	return released, nil
}
