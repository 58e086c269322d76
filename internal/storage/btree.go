package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// This file is the ordered counterpart of diskindex.go: a paged B+tree
// mapping byte-string keys (memcomparable — the store encodes atoms
// with encoding.AppendOrderedAtom so bytes.Compare IS value.Compare)
// to record ids, with duplicates allowed. Exactly like DiskHashIndex,
// every page is an ordinary checksummed slotted page and every
// mutation goes through GetMut/NewPage under a Txn, so splits and
// unlinks ride the same no-steal dirty sets, merged group commits, and
// full-page-image redo as heap pages — the tree needs zero new
// recovery protocol.
//
// Layout:
//
//	meta page   record 0: 'B' root:u32 height:u16 count:u64
//	            firstLeaf:u32 (fixed 19 bytes, updated in place —
//	            the page id persisted in the catalog, so a root
//	            split never moves the catalog-recorded handle).
//	leaf page   record 0: 'L'; records 1..n are entries sorted by
//	            (key, rid): keyLen:uvarint key rid.Page:u32
//	            rid.Slot:u16 (the hash index's entry codec). Leaves
//	            are chained left-to-right through the page Next field.
//	inner page  record 0: 'I' leftmostChild:u32; records 1..n are
//	            separator entries (same codec + child:u32), sorted.
//	            The subtree under child i of [leftmost, e1.child, …]
//	            holds entries ≥ separator i−1 and < separator i.
//
// Entries are ordered by the composite (key, rid.Page, rid.Slot), so
// duplicate keys need no overflow machinery: separators are full
// composites and always split a duplicate run cleanly. Node mutation
// rewrites the whole page with entries in sorted slot order — the
// WAL's delta records diff the result against the page's previous
// committed image, so only the bytes that actually changed reach the
// log and the rewrite costs little more than a surgical in-place edit.
//
// Shrinking mirrors the hash index's pragmatics: a leaf emptied by
// deletes is unlinked from its parent and chain and handed to
// TakeReleased for the free list, unless it is its parent's leftmost
// child (the descent anchor). Inner pages never merge — like hash
// directory pages, they are reclaimed only by Clear (rebuild) or drop.

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
// tree — the store does so under its per-shard lock, mirroring
// DiskHashIndex's contract.
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

// readNode parses the node page pid.
func (ix *BTree) readNode(pid uint32) (*btNode, error) {
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
				derr = fmt.Errorf("%w: bad node header on page %d", ErrCorruptBTree, pid)
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
			return nil, fmt.Errorf("%w: page %d entries out of order", ErrCorruptBTree, pid)
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
			return e, fmt.Errorf("%w: short inner entry", ErrCorruptBTree)
		}
		e.child = binary.LittleEndian.Uint32(rec[len(rec)-4:])
		if e.child == 0 {
			return e, fmt.Errorf("%w: inner entry with child 0", ErrCorruptBTree)
		}
		rec = rec[:len(rec)-4]
	}
	key, rid, err := decodeIndexEntry(rec)
	if err != nil {
		return e, fmt.Errorf("%w: %v", ErrCorruptBTree, err)
	}
	e.key = append([]byte(nil), key...)
	e.rid = rid
	return e, nil
}

// nodeFits reports whether a node with the given entries can be
// rewritten onto one page (header record + one slot per record).
func (ix *BTree) nodeFits(entries []btEntry, inner bool) bool {
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
func (ix *BTree) writeNode(txn *Txn, pid uint32, leaf bool, leftmost uint32, entries []btEntry, next uint32) error {
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

// pathEl is one step of a root-to-leaf descent: the node, its page,
// and which child slot the descent took (children are numbered with
// the leftmost pointer as 0).
type pathEl struct {
	pid      uint32
	node     *btNode
	childIdx int
}

// descend walks from the root to the leaf that would hold (key, rid),
// returning the full path (root first, leaf last).
func (ix *BTree) descend(key []byte, rid RID) ([]pathEl, error) {
	path := make([]pathEl, 0, ix.height)
	pid := ix.root
	for depth := 0; ; depth++ {
		if depth >= ix.height {
			return nil, fmt.Errorf("%w: descent deeper than height %d", ErrCorruptBTree, ix.height)
		}
		n, err := ix.readNode(pid)
		if err != nil {
			return nil, err
		}
		wantLeaf := depth == ix.height-1
		if n.leaf != wantLeaf {
			return nil, fmt.Errorf("%w: page %d at depth %d has the wrong node kind", ErrCorruptBTree, pid, depth)
		}
		el := pathEl{pid: pid, node: n}
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
			return nil, fmt.Errorf("%w: descent hit child 0", ErrCorruptBTree)
		}
	}
}

// Put inserts a key → rid entry (duplicate keys allowed) under txn,
// splitting nodes bottom-up as needed, and persists the updated meta.
func (ix *BTree) Put(txn *Txn, key []byte, rid RID) error {
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
		if err := ix.writeNode(txn, leaf.pid, true, 0, entries, leaf.node.next); err != nil {
			return err
		}
	} else if err := ix.splitLeaf(txn, path, entries); err != nil {
		return err
	}
	ix.count++
	ix.deferMeta(txn)
	return nil
}

// splitLeaf rewrites the overflowing leaf as two chained leaves and
// inserts the right half's first entry as a separator in the parent
// (growing a new root when the leaf was the root).
func (ix *BTree) splitLeaf(txn *Txn, path []pathEl, entries []btEntry) error {
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
func (ix *BTree) insertSeparator(txn *Txn, path []pathEl, fromChild uint32, sep btEntry) error {
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
		ix.root = rootPid
		ix.height++
		return nil
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
func (ix *BTree) Delete(txn *Txn, key []byte, rid RID) (bool, error) {
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
	ix.count--
	ix.deferMeta(txn)
	return true, nil
}

// unlinkLeaf splices the emptied leaf out of its parent (dropping the
// separator that routes to it) and out of the leaf chain (the left
// sibling under the same parent takes over its successor), queueing
// the page for TakeReleased. All writes ride txn, so a rollback or
// crash reverts the splice together with the delete that caused it.
func (ix *BTree) unlinkLeaf(txn *Txn, path []pathEl) error {
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
// calling fn until it returns false or the range ends. It returns how
// many index pages the scan touched (descent nodes plus visited
// leaves): the planner's page-read claim, gated by the range bench.
func (ix *BTree) Scan(lo []byte, loIncl bool, hi []byte, hiIncl bool, fn func(key []byte, rid RID) bool) (int, error) {
	pages := 0
	var leafPid uint32
	var node *btNode
	if lo == nil {
		leafPid = ix.firstLeaf
	} else {
		path, err := ix.descend(lo, RID{})
		if err != nil {
			return 0, err
		}
		pages += len(path)
		leafPid = path[len(path)-1].pid
		node = path[len(path)-1].node
	}
	limit := int(ix.bp.pager.NumPages()) + 1
	for steps := 0; leafPid != 0; {
		if steps++; steps > limit {
			return pages, fmt.Errorf("%w: leaf chain cycle at page %d", ErrCorruptBTree, leafPid)
		}
		if node == nil {
			pages++
			n, err := ix.readNode(leafPid)
			if err != nil {
				return pages, err
			}
			if !n.leaf {
				return pages, fmt.Errorf("%w: page %d on the leaf chain is not a leaf", ErrCorruptBTree, leafPid)
			}
			node = n
		}
		for _, e := range node.entries {
			if lo != nil {
				if c := bytes.Compare(e.key, lo); c < 0 || (c == 0 && !loIncl) {
					continue
				}
			}
			if hi != nil {
				if c := bytes.Compare(e.key, hi); c > 0 || (c == 0 && !hiIncl) {
					return pages, nil
				}
			}
			if !fn(e.key, e.rid) {
				return pages, nil
			}
		}
		leafPid = node.next
		node = nil
	}
	return pages, nil
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
// and the leaf chain visits exactly the tree's leaves in tree order.
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

// walk traverses the whole tree, returning inner and leaf page ids in
// tree order and validating structure: kinds match depth, no page is
// shared, the chain from firstLeaf is exactly the leaf sequence, and
// the leaf entry total matches the meta count.
func (ix *BTree) walk() (inner, leaves []uint32, err error) {
	seen := map[uint32]bool{ix.metaPid: true}
	entryTotal := 0
	var rec func(pid uint32, depth int) error
	rec = func(pid uint32, depth int) error {
		if pid == 0 || seen[pid] {
			return fmt.Errorf("%w: page %d reached twice (or zero)", ErrCorruptBTree, pid)
		}
		seen[pid] = true
		n, err := ix.readNode(pid)
		if err != nil {
			return err
		}
		if wantLeaf := depth == ix.height-1; n.leaf != wantLeaf {
			return fmt.Errorf("%w: page %d at depth %d has the wrong node kind", ErrCorruptBTree, pid, depth)
		}
		if n.leaf {
			leaves = append(leaves, pid)
			entryTotal += len(n.entries)
			return nil
		}
		inner = append(inner, pid)
		if err := rec(n.leftmost, depth+1); err != nil {
			return err
		}
		for _, e := range n.entries {
			if err := rec(e.child, depth+1); err != nil {
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
		fr, err := ix.bp.Get(pid)
		if err != nil {
			return nil, nil, err
		}
		next := fr.Page().Next()
		if err := ix.bp.Unpin(fr, false); err != nil {
			return nil, nil, err
		}
		pid = next
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
	if err := ix.writeNode(txn, ix.firstLeaf, true, 0, nil, 0); err != nil {
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
