package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// This file implements the durable hash index: a paged
// linear-hashing index whose directory and buckets are ordinary
// checksummed slotted pages behind the buffer pool. Because every
// mutation goes through GetMut/NewPage under a Txn, index pages ride
// the same no-steal dirty sets, merged group commits, and LSN-gated
// redo as heap pages — the index needs zero new recovery protocol, and
// a crash always lands on a state where index and heap describe the
// same committed transaction boundary.
//
// Layout (all pages are standard slotted pages, see page.go):
//
//	directory chain  record 0 of the first page is the meta record
//	                 ('H' n0:u16 level:u16 next:u32 nbuckets:u32
//	                 count:u64, fixed 21 bytes, updated in place);
//	                 every further record is a 4-byte little-endian
//	                 bucket page id, appended in bucket order.
//	bucket chains    one primary page per bucket plus overflow pages
//	                 linked by the page Next field; each record is one
//	                 entry: keyLen:uvarint key rid.Page:u32 rid.Slot:u16.
//
// Linear splitting: buckets are addressed with h & (n0<<level - 1),
// re-hashed one level deeper when the address falls below the split
// pointer `next`. An insert that cannot be placed in its bucket's
// primary page (it spills into the overflow chain) triggers one split
// of bucket `next`: a new bucket is appended to the directory and the
// split bucket's entries are redistributed between the pair using the
// next-level mask. `next` then advances, doubling the table level by
// level — the classic Litwin scheme, chosen because the directory only
// ever appends, so attaching to an index costs O(directory pages), not
// O(entries).
const (
	// indexInitBuckets is the bucket count of a fresh index (a power of
	// two; linear splitting doubles the address space level by level).
	indexInitBuckets = 2

	indexMetaTag = 'H'
	indexMetaLen = 21

	// maxIndexEntry is the largest encodable entry record: anything
	// bigger could never be placed on an empty page.
	maxIndexEntry = PageSize - pageHeaderSize - slotSize
)

func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// ErrCorruptIndex wraps structural damage found in a paged hash index
// (bad meta record, malformed entry, cyclic or cross-linked chains).
var ErrCorruptIndex = errors.New("storage: corrupt hash index")

// DiskHashIndex is a durable hash index: byte-string keys mapped to
// record ids (duplicates allowed), stored in pages behind a buffer
// pool. The struct itself is only a small in-memory mirror of the
// directory (bucket page ids plus the split state); all entries live
// in bucket pages. Callers serialize access per index — the store does
// so under its per-shard latch.
type DiskHashIndex struct {
	bp      *BufferPool
	root    uint32   // first page of the directory chain
	dir     []uint32 // directory chain page ids
	buckets []uint32 // bucket primary page ids, in bucket order
	n0      int      // initial bucket count (power of two)
	level   int
	next    int // split pointer: the next bucket to split
	count   int
	// maxEntries, when > 0, caps how many live entries a bucket's
	// primary page may hold before an insert counts as a spill (tests
	// use it to force splits from tiny workloads; 0 = page capacity
	// decides).
	maxEntries int
	// released accumulates overflow pages emptied by deletes and
	// unlinked from their bucket chains, until the owner drains them
	// via TakeReleased (to hand to a free list under the same txn).
	released []uint32
}

// CreateDiskIndex allocates a fresh empty index under txn and returns
// it. Persist Root() to reattach later.
func CreateDiskIndex(bp *BufferPool, txn *Txn) (*DiskHashIndex, error) {
	ix := &DiskHashIndex{bp: bp, n0: indexInitBuckets}
	fr, err := bp.NewPage(txn)
	if err != nil {
		return nil, err
	}
	ix.root = fr.PID()
	ix.dir = []uint32{ix.root}
	for i := 0; i < ix.n0; i++ {
		bf, err := bp.NewPage(txn)
		if err != nil {
			bp.Unpin(fr, true)
			return nil, err
		}
		ix.buckets = append(ix.buckets, bf.PID())
		if err := bp.Unpin(bf, true); err != nil {
			bp.Unpin(fr, true)
			return nil, err
		}
	}
	if err := ix.writeDirectory(fr); err != nil {
		bp.Unpin(fr, true)
		return nil, err
	}
	return ix, bp.Unpin(fr, true)
}

// writeDirectory rewrites a (fresh or reset) directory root page with
// the meta record followed by every bucket pid. Only valid while the
// whole directory fits one page (creation and Clear guarantee it).
func (ix *DiskHashIndex) writeDirectory(fr *Frame) error {
	if _, err := fr.Page().Insert(ix.metaBytes()); err != nil {
		return err
	}
	for _, pid := range ix.buckets {
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], pid)
		if _, err := fr.Page().Insert(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// OpenDiskIndex attaches to the index whose directory chain starts at
// root, reading only the directory — O(buckets/page) page reads, never
// the entries.
func OpenDiskIndex(bp *BufferPool, root uint32) (*DiskHashIndex, error) {
	ix := &DiskHashIndex{bp: bp, root: root}
	if err := ix.load(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Refresh re-reads the directory from its pages, discarding the
// in-memory mirror. Callers use it after a transaction rollback
// discarded uncommitted index frames: the pages have reverted to the
// committed state and the mirror (split pointer, appended buckets,
// count) must follow.
func (ix *DiskHashIndex) Refresh() error {
	// pages shed under a since-rolled-back txn are back on their chains;
	// handing them to a free list now would double-own them
	ix.released = nil
	return ix.load()
}

func (ix *DiskHashIndex) load() error {
	var (
		dir     []uint32
		buckets []uint32
		meta    []byte
	)
	seen := make(map[uint32]bool)
	pid := ix.root
	first := true
	for pid != 0 {
		if seen[pid] {
			return fmt.Errorf("%w: directory chain cycle at page %d", ErrCorruptIndex, pid)
		}
		seen[pid] = true
		fr, err := ix.bp.Get(pid)
		if err != nil {
			return err
		}
		dir = append(dir, pid)
		var recErr error
		fr.Page().LiveRecords(func(slot int, rec []byte) bool {
			if first && slot == 0 {
				meta = append([]byte(nil), rec...)
				return true
			}
			if len(rec) != 4 {
				recErr = fmt.Errorf("%w: directory record of %d bytes", ErrCorruptIndex, len(rec))
				return false
			}
			buckets = append(buckets, binary.LittleEndian.Uint32(rec))
			return true
		})
		next := fr.Page().Next()
		if err := ix.bp.Unpin(fr, false); err != nil {
			return err
		}
		if recErr != nil {
			return recErr
		}
		first = false
		pid = next
	}
	n0, level, next, nbuckets, count, err := decodeIndexMeta(meta)
	if err != nil {
		return err
	}
	if len(buckets) != nbuckets {
		return fmt.Errorf("%w: directory lists %d buckets, meta says %d",
			ErrCorruptIndex, len(buckets), nbuckets)
	}
	dup := make(map[uint32]bool, len(buckets))
	for _, b := range buckets {
		if b == 0 || seen[b] || dup[b] {
			return fmt.Errorf("%w: impossible bucket page id %d", ErrCorruptIndex, b)
		}
		dup[b] = true
	}
	ix.dir, ix.buckets = dir, buckets
	ix.n0, ix.level, ix.next, ix.count = n0, level, next, count
	return nil
}

func (ix *DiskHashIndex) metaBytes() []byte {
	b := make([]byte, indexMetaLen)
	b[0] = indexMetaTag
	binary.LittleEndian.PutUint16(b[1:3], uint16(ix.n0))
	binary.LittleEndian.PutUint16(b[3:5], uint16(ix.level))
	binary.LittleEndian.PutUint32(b[5:9], uint32(ix.next))
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(ix.buckets)))
	binary.LittleEndian.PutUint64(b[13:21], uint64(ix.count))
	return b
}

func decodeIndexMeta(rec []byte) (n0, level, next, nbuckets, count int, err error) {
	fail := func(form string, args ...any) (int, int, int, int, int, error) {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: "+form, append([]any{ErrCorruptIndex}, args...)...)
	}
	if len(rec) != indexMetaLen || rec[0] != indexMetaTag {
		return fail("bad meta record (%d bytes)", len(rec))
	}
	n0 = int(binary.LittleEndian.Uint16(rec[1:3]))
	level = int(binary.LittleEndian.Uint16(rec[3:5]))
	next = int(binary.LittleEndian.Uint32(rec[5:9]))
	nbuckets = int(binary.LittleEndian.Uint32(rec[9:13]))
	c := binary.LittleEndian.Uint64(rec[13:21])
	if n0 < 1 || n0 > 4096 || n0&(n0-1) != 0 {
		return fail("initial bucket count %d", n0)
	}
	if level > 31 {
		return fail("level %d", level)
	}
	if next >= n0<<level {
		return fail("split pointer %d beyond level %d", next, level)
	}
	if nbuckets != n0<<level+next {
		return fail("bucket count %d inconsistent with level %d / split %d", nbuckets, level, next)
	}
	if c > 1<<50 {
		return fail("entry count %d", c)
	}
	return n0, level, next, nbuckets, int(c), nil
}

// appendIndexEntry encodes one key → rid entry record.
func appendIndexEntry(b, key []byte, rid RID) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, rid.Page)
	b = binary.LittleEndian.AppendUint16(b, rid.Slot)
	return b
}

// decodeIndexEntry is the strict inverse of appendIndexEntry: trailing
// or missing bytes are corruption, never guessed at. The returned key
// aliases rec.
func decodeIndexEntry(rec []byte) (key []byte, rid RID, err error) {
	kl, n := binary.Uvarint(rec)
	if n <= 0 || kl > uint64(len(rec))-uint64(n) {
		return nil, RID{}, fmt.Errorf("%w: bad entry key length", ErrCorruptIndex)
	}
	rest := rec[n:]
	if uint64(len(rest)) != kl+6 {
		return nil, RID{}, fmt.Errorf("%w: entry of %d bytes, want %d", ErrCorruptIndex, len(rest), kl+6)
	}
	key = rest[:kl]
	rid.Page = binary.LittleEndian.Uint32(rest[kl : kl+4])
	rid.Slot = binary.LittleEndian.Uint16(rest[kl+4 : kl+6])
	return key, rid, nil
}

// Root returns the directory chain's first page id (persist this to
// reattach with OpenDiskIndex).
func (ix *DiskHashIndex) Root() uint32 { return ix.root }

// Len returns the number of stored entries.
func (ix *DiskHashIndex) Len() int { return ix.count }

// Buckets returns the current bucket count (grows by one per split).
func (ix *DiskHashIndex) Buckets() int { return len(ix.buckets) }

// Level returns the current hashing level.
func (ix *DiskHashIndex) Level() int { return ix.level }

// SetMaxBucketEntries caps how many live entries a bucket's primary
// page may hold before an insert counts as a spill and triggers a
// split (0 restores the default: page capacity decides). Only the
// split TIMING changes — the on-disk structure stays self-describing —
// so tests use it to exercise splits with tiny workloads.
func (ix *DiskHashIndex) SetMaxBucketEntries(n int) { ix.maxEntries = n }

// chainLimit bounds bucket-chain walks without allocating a visited
// set on every probe (Get/Put/Delete are the engine's key-probe hot
// path): a chain with more pages than the file holds is provably
// cyclic. The cold paths that need exact cross-chain duplicate
// detection (load, Pages) keep their maps.
func (ix *DiskHashIndex) chainLimit() int { return int(ix.bp.pager.NumPages()) + 1 }

// bucketOf addresses a hash: the current-level mask, one level deeper
// for addresses already passed by the split pointer.
func (ix *DiskHashIndex) bucketOf(h uint64) int {
	mask := uint64(ix.n0)<<ix.level - 1
	i := h & mask
	if i < uint64(ix.next) {
		i = h & (mask<<1 | 1)
	}
	return int(i)
}

// Put inserts a key → rid mapping (duplicates allowed) under txn and
// persists the updated entry count. An insert that spills past its
// bucket's primary page triggers one linear split.
func (ix *DiskHashIndex) Put(txn *Txn, key []byte, rid RID) error {
	rec := appendIndexEntry(nil, key, rid)
	if len(rec) > maxIndexEntry {
		return fmt.Errorf("storage: index entry of %d bytes can never fit a page", len(rec))
	}
	spilled, err := ix.bucketInsert(txn, ix.buckets[ix.bucketOf(hashKey(key))], rec)
	if err != nil {
		return err
	}
	ix.count++
	if spilled {
		if err := ix.split(txn); err != nil {
			return err
		}
	}
	ix.deferMeta(txn)
	return nil
}

// bucketInsert places rec in the bucket chain rooted at first, growing
// the overflow chain when every page is full. It reports whether the
// insert spilled past the primary page (the split trigger).
func (ix *DiskHashIndex) bucketInsert(txn *Txn, first uint32, rec []byte) (spilled bool, err error) {
	pid := first
	limit := ix.chainLimit()
	for steps := 0; ; {
		if steps++; steps > limit {
			return false, fmt.Errorf("%w: bucket chain cycle at page %d", ErrCorruptIndex, pid)
		}
		fr, err := ix.bp.GetMut(txn, pid)
		if err != nil {
			return false, err
		}
		p := fr.Page()
		mutated := false
		_, ierr := p.Insert(rec)
		if ierr == ErrPageFull {
			p.Compact()
			mutated = true
			_, ierr = p.Insert(rec)
		}
		if ierr == nil {
			if pid == first && ix.maxEntries > 0 && liveSlots(p) > ix.maxEntries {
				spilled = true
			}
			return spilled, ix.bp.Unpin(fr, true)
		}
		if ierr != ErrPageFull {
			ix.bp.Unpin(fr, mutated)
			return false, ierr
		}
		spilled = true
		next := p.Next()
		if next != 0 {
			if uerr := ix.bp.Unpin(fr, mutated); uerr != nil {
				return false, uerr
			}
			pid = next
			continue
		}
		nf, nerr := ix.bp.NewPage(txn)
		if nerr != nil {
			ix.bp.Unpin(fr, mutated)
			return false, nerr
		}
		p.SetNext(nf.PID())
		if uerr := ix.bp.Unpin(fr, true); uerr != nil {
			ix.bp.Unpin(nf, false)
			return false, uerr
		}
		if _, ierr := nf.Page().Insert(rec); ierr != nil {
			ix.bp.Unpin(nf, false)
			return false, ierr
		}
		return true, ix.bp.Unpin(nf, true)
	}
}

func liveSlots(p *Page) int {
	n := 0
	p.LiveRecords(func(int, []byte) bool { n++; return true })
	return n
}

// split performs one linear split: bucket `next` is split, a new
// bucket is appended to the directory, and the split bucket's entries
// are redistributed between the pair using the next-level mask.
func (ix *DiskHashIndex) split(txn *Txn) error {
	old := ix.next
	oldPids, entries, err := ix.dumpBucket(ix.buckets[old])
	if err != nil {
		return err
	}
	nf, err := ix.bp.NewPage(txn)
	if err != nil {
		return err
	}
	newPid := nf.PID()
	if err := ix.bp.Unpin(nf, true); err != nil {
		return err
	}
	if err := ix.dirAppend(txn, newPid); err != nil {
		return err
	}
	newIdx := len(ix.buckets)
	ix.buckets = append(ix.buckets, newPid)
	ix.next++
	if ix.next == ix.n0<<ix.level {
		ix.level++
		ix.next = 0
	}
	var keep, move [][]byte
	for _, rec := range entries {
		key, _, derr := decodeIndexEntry(rec)
		if derr != nil {
			return derr
		}
		switch ix.bucketOf(hashKey(key)) {
		case old:
			keep = append(keep, rec)
		case newIdx:
			move = append(move, rec)
		default:
			return fmt.Errorf("%w: entry rehashed outside split pair", ErrCorruptIndex)
		}
	}
	if err := ix.rewriteChain(txn, oldPids, keep); err != nil {
		return err
	}
	return ix.rewriteChain(txn, []uint32{newPid}, move)
}

// dumpBucket collects the chain's page ids and a copy of every entry
// record.
func (ix *DiskHashIndex) dumpBucket(first uint32) (pids []uint32, recs [][]byte, err error) {
	pid := first
	limit := ix.chainLimit()
	for steps := 0; pid != 0; {
		if steps++; steps > limit {
			return nil, nil, fmt.Errorf("%w: bucket chain cycle at page %d", ErrCorruptIndex, pid)
		}
		fr, err := ix.bp.Get(pid)
		if err != nil {
			return nil, nil, err
		}
		pids = append(pids, pid)
		fr.Page().LiveRecords(func(_ int, rec []byte) bool {
			recs = append(recs, append([]byte(nil), rec...))
			return true
		})
		next := fr.Page().Next()
		if err := ix.bp.Unpin(fr, false); err != nil {
			return nil, nil, err
		}
		pid = next
	}
	return pids, recs, nil
}

// rewriteChain rewrites the chain's pages to hold exactly recs. Pages
// are reused in order with their links preserved — an emptied overflow
// page stays chained for future growth — and fresh overflow pages are
// appended only when recs outgrow the chain.
func (ix *DiskHashIndex) rewriteChain(txn *Txn, pids []uint32, recs [][]byte) error {
	for n := 0; n < len(pids); n++ {
		fr, err := ix.bp.GetMut(txn, pids[n])
		if err != nil {
			return err
		}
		p := fr.Page()
		next := p.Next()
		p.Init()
		p.SetNext(next)
		for len(recs) > 0 {
			_, ierr := p.Insert(recs[0])
			if ierr == ErrPageFull {
				break
			}
			if ierr != nil {
				ix.bp.Unpin(fr, true)
				return ierr
			}
			recs = recs[1:]
		}
		if n == len(pids)-1 && len(recs) > 0 {
			nf, nerr := ix.bp.NewPage(txn)
			if nerr != nil {
				ix.bp.Unpin(fr, true)
				return nerr
			}
			p.SetNext(nf.PID())
			pids = append(pids, nf.PID())
			if uerr := ix.bp.Unpin(nf, true); uerr != nil {
				ix.bp.Unpin(fr, true)
				return uerr
			}
		}
		if err := ix.bp.Unpin(fr, true); err != nil {
			return err
		}
	}
	if len(recs) > 0 {
		return fmt.Errorf("storage: index rewrite left %d entries unplaced", len(recs))
	}
	return nil
}

// dirAppend appends a bucket pid record to the directory chain.
func (ix *DiskHashIndex) dirAppend(txn *Txn, bucketPid uint32) error {
	var rec [4]byte
	binary.LittleEndian.PutUint32(rec[:], bucketPid)
	last := ix.dir[len(ix.dir)-1]
	fr, err := ix.bp.GetMut(txn, last)
	if err != nil {
		return err
	}
	_, ierr := fr.Page().Insert(rec[:])
	if ierr == nil {
		return ix.bp.Unpin(fr, true)
	}
	if ierr != ErrPageFull {
		ix.bp.Unpin(fr, false)
		return ierr
	}
	nf, nerr := ix.bp.NewPage(txn)
	if nerr != nil {
		ix.bp.Unpin(fr, false)
		return nerr
	}
	fr.Page().SetNext(nf.PID())
	if uerr := ix.bp.Unpin(fr, true); uerr != nil {
		ix.bp.Unpin(nf, false)
		return uerr
	}
	if _, ierr := nf.Page().Insert(rec[:]); ierr != nil {
		ix.bp.Unpin(nf, false)
		return ierr
	}
	ix.dir = append(ix.dir, nf.PID())
	return ix.bp.Unpin(nf, true)
}

// deferMeta schedules one meta flush for the transaction. Mutations
// only update the in-memory mirror; the meta record (split state +
// entry count) is written once at commit, so a statement that touches
// the index many times no longer logs the directory root once per
// touch — the "index meta re-log" write-amplification fix.
func (ix *DiskHashIndex) deferMeta(txn *Txn) { txn.Defer(ix, ix.writeMeta) }

// writeMeta overwrites the meta record in place (fixed size, the slot
// never moves) so the persisted split state and entry count follow
// every mutation within the same transaction. It runs as deferred
// commit work (see deferMeta), not per mutation.
func (ix *DiskHashIndex) writeMeta(txn *Txn) error {
	fr, err := ix.bp.GetMut(txn, ix.root)
	if err != nil {
		return err
	}
	rec, gerr := fr.Page().Get(0)
	if gerr != nil || len(rec) != indexMetaLen || rec[0] != indexMetaTag {
		ix.bp.Unpin(fr, false)
		return fmt.Errorf("%w: meta record missing from directory root %d", ErrCorruptIndex, ix.root)
	}
	copy(rec, ix.metaBytes())
	return ix.bp.Unpin(fr, true)
}

// walkBucket calls fn for every entry in the bucket chain rooted at
// first; fn returning false stops the walk. key aliases the pinned
// page and is only valid during the call.
func (ix *DiskHashIndex) walkBucket(first uint32, fn func(pid uint32, slot int, key []byte, rid RID) bool) error {
	pid := first
	limit := ix.chainLimit()
	for steps := 0; pid != 0; {
		if steps++; steps > limit {
			return fmt.Errorf("%w: bucket chain cycle at page %d", ErrCorruptIndex, pid)
		}
		fr, err := ix.bp.Get(pid)
		if err != nil {
			return err
		}
		var derr error
		stop := false
		fr.Page().LiveRecords(func(slot int, rec []byte) bool {
			k, rid, err := decodeIndexEntry(rec)
			if err != nil {
				derr = fmt.Errorf("page %d slot %d: %w", pid, slot, err)
				return false
			}
			if !fn(pid, slot, k, rid) {
				stop = true
				return false
			}
			return true
		})
		next := fr.Page().Next()
		if err := ix.bp.Unpin(fr, false); err != nil {
			return err
		}
		if derr != nil {
			return derr
		}
		if stop {
			return nil
		}
		pid = next
	}
	return nil
}

// Get returns every rid stored under key.
func (ix *DiskHashIndex) Get(key []byte) ([]RID, error) {
	var out []RID
	err := ix.walkBucket(ix.buckets[ix.bucketOf(hashKey(key))], func(_ uint32, _ int, k []byte, rid RID) bool {
		if bytes.Equal(k, key) {
			out = append(out, rid)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes one key → rid mapping under txn, reporting whether a
// mapping was removed. Buckets themselves are never merged, but an
// overflow page the delete leaves empty is unlinked from its bucket
// chain under the same txn and queued on TakeReleased for the caller
// to return to its free list — so a fill/drain cycle gives chain pages
// back instead of leaving ever-longer walks over tombstones. Primary
// pages stay in place (the directory references them).
func (ix *DiskHashIndex) Delete(txn *Txn, key []byte, rid RID) (bool, error) {
	primary := ix.buckets[ix.bucketOf(hashKey(key))]
	foundPid, foundSlot := uint32(0), -1
	err := ix.walkBucket(primary, func(pid uint32, slot int, k []byte, r RID) bool {
		if r == rid && bytes.Equal(k, key) {
			foundPid, foundSlot = pid, slot
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	if foundSlot < 0 {
		return false, nil
	}
	fr, err := ix.bp.GetMut(txn, foundPid)
	if err != nil {
		return false, err
	}
	if derr := fr.Page().Delete(foundSlot); derr != nil {
		ix.bp.Unpin(fr, false)
		return false, derr
	}
	empty := fr.Page().NumLive() == 0
	victimNext := fr.Page().Next()
	if err := ix.bp.Unpin(fr, true); err != nil {
		return false, err
	}
	ix.count--
	if empty && foundPid != primary {
		if err := ix.unlinkOverflow(txn, primary, foundPid, victimNext); err != nil {
			return false, err
		}
	}
	if empty {
		// the delete emptied a page, so the trailing bucket may now be
		// fully empty — the only state a linear split can be undone from
		if err := ix.shrink(txn); err != nil {
			return true, err
		}
	}
	ix.deferMeta(txn)
	return true, nil
}

// shrink reverses linear splits while the LAST bucket's whole chain is
// empty: the trailing directory record is removed, the split pointer
// steps back (one level up when it wraps), and every page of the empty
// chain is queued for TakeReleased — so a heavily shrunk index gives
// its directory and bucket pages back instead of keeping its high-water
// footprint forever. Removing an empty trailing bucket is exactly an
// undo of the split that created it: the bucket holds no entries to
// move back, and any key that would have deep-hashed to it now
// shallow-hashes to its buddy (the restored split target), which is
// where pre-split lookups already probe.
func (ix *DiskHashIndex) shrink(txn *Txn) error {
	for len(ix.buckets) > ix.n0 {
		last := ix.buckets[len(ix.buckets)-1]
		empty, pids, err := ix.chainPagesIfEmpty(last)
		if err != nil {
			return err
		}
		if !empty {
			return nil
		}
		if err := ix.dirRemoveLast(txn); err != nil {
			return err
		}
		ix.buckets = ix.buckets[:len(ix.buckets)-1]
		if ix.next == 0 {
			ix.level--
			ix.next = ix.n0 << ix.level
		}
		ix.next--
		ix.released = append(ix.released, pids...)
	}
	return nil
}

// chainPagesIfEmpty walks the bucket chain rooted at first; when every
// page is free of live entries it returns (true, all chain page ids).
func (ix *DiskHashIndex) chainPagesIfEmpty(first uint32) (bool, []uint32, error) {
	var pids []uint32
	pid := first
	limit := ix.chainLimit()
	for steps := 0; pid != 0; {
		if steps++; steps > limit {
			return false, nil, fmt.Errorf("%w: bucket chain cycle at page %d", ErrCorruptIndex, pid)
		}
		fr, err := ix.bp.Get(pid)
		if err != nil {
			return false, nil, err
		}
		live := fr.Page().NumLive()
		next := fr.Page().Next()
		if err := ix.bp.Unpin(fr, false); err != nil {
			return false, nil, err
		}
		if live > 0 {
			return false, nil, nil
		}
		pids = append(pids, pid)
		pid = next
	}
	return true, pids, nil
}

// dirRemoveLast tombstones the trailing bucket record in the directory
// and trims a directory overflow page the removal leaves empty
// (unlinked and queued for TakeReleased). Because shrink always removes
// the HIGHEST live slot and Insert reuses the lowest tombstone first,
// tombstones stay a suffix of each page's slot order and slot order
// keeps matching bucket order — the invariant load() depends on.
func (ix *DiskHashIndex) dirRemoveLast(txn *Txn) error {
	last := ix.dir[len(ix.dir)-1]
	fr, err := ix.bp.GetMut(txn, last)
	if err != nil {
		return err
	}
	p := fr.Page()
	slot := -1
	for i := 0; i < p.NumSlots(); i++ {
		if _, gerr := p.Get(i); gerr == nil && !(last == ix.root && i == 0) {
			slot = i // keep scanning: we want the highest live slot
		}
	}
	if slot < 0 {
		ix.bp.Unpin(fr, false)
		return fmt.Errorf("%w: directory has no bucket record to remove", ErrCorruptIndex)
	}
	if derr := p.Delete(slot); derr != nil {
		ix.bp.Unpin(fr, false)
		return derr
	}
	emptied := last != ix.root && p.NumLive() == 0
	if err := ix.bp.Unpin(fr, true); err != nil {
		return err
	}
	if emptied {
		prev := ix.dir[len(ix.dir)-2]
		pf, err := ix.bp.GetMut(txn, prev)
		if err != nil {
			return err
		}
		pf.Page().SetNext(0)
		if err := ix.bp.Unpin(pf, true); err != nil {
			return err
		}
		ix.dir = ix.dir[:len(ix.dir)-1]
		ix.released = append(ix.released, last)
	}
	return nil
}

// unlinkOverflow splices the empty overflow page victim out of the
// bucket chain rooted at primary (victim's successor is next) and
// queues it for TakeReleased. All page writes ride txn, so a rollback
// or crash reverts the splice together with the delete that caused it.
func (ix *DiskHashIndex) unlinkOverflow(txn *Txn, primary, victim, next uint32) error {
	prev := primary
	limit := ix.chainLimit()
	for steps := 0; ; {
		if steps++; steps > limit {
			return fmt.Errorf("%w: bucket chain cycle at page %d", ErrCorruptIndex, prev)
		}
		fr, err := ix.bp.Get(prev)
		if err != nil {
			return err
		}
		n := fr.Page().Next()
		if err := ix.bp.Unpin(fr, false); err != nil {
			return err
		}
		if n == victim {
			break
		}
		if n == 0 {
			// already unlinked (should not happen; be conservative and
			// keep the page rather than double-free it)
			return nil
		}
		prev = n
	}
	fr, err := ix.bp.GetMut(txn, prev)
	if err != nil {
		return err
	}
	fr.Page().SetNext(next)
	if err := ix.bp.Unpin(fr, true); err != nil {
		return err
	}
	ix.released = append(ix.released, victim)
	return nil
}

// TakeReleased drains the overflow pages shed by deletes since the
// last call. The caller must hand them to a free list (or accept them
// as orphans for the open-time sweep); they are no longer reachable
// from the index.
func (ix *DiskHashIndex) TakeReleased() []uint32 {
	out := ix.released
	ix.released = nil
	return out
}

// Pages returns every page the index owns — the directory chain and
// each bucket's chain — for drop-time reclamation and the open-time
// orphan sweep. A page appearing on two chains is corruption.
func (ix *DiskHashIndex) Pages() ([]uint32, error) {
	seen := make(map[uint32]bool)
	out := append([]uint32(nil), ix.dir...)
	for _, pid := range ix.dir {
		if seen[pid] {
			return nil, fmt.Errorf("%w: page %d on two chains", ErrCorruptIndex, pid)
		}
		seen[pid] = true
	}
	for _, first := range ix.buckets {
		pid := first
		for pid != 0 {
			if seen[pid] {
				return nil, fmt.Errorf("%w: page %d on two chains", ErrCorruptIndex, pid)
			}
			seen[pid] = true
			out = append(out, pid)
			fr, err := ix.bp.Get(pid)
			if err != nil {
				return nil, err
			}
			next := fr.Page().Next()
			if err := ix.bp.Unpin(fr, false); err != nil {
				return nil, err
			}
			pid = next
		}
	}
	return out, nil
}

// PageCounts reports the index's footprint split into directory chain
// pages and bucket+overflow pages — the observable for the known
// directory-never-shrinks growth (STATS surfaces it per relation).
func (ix *DiskHashIndex) PageCounts() (dir, buckets int, err error) {
	all, err := ix.Pages()
	if err != nil {
		return 0, 0, err
	}
	return len(ix.dir), len(all) - len(ix.dir), nil
}

// Clear resets the index to empty under txn, reusing the directory
// root and the first n0 bucket primaries and returning every other
// page (grown buckets, overflow chains, directory overflow) for the
// caller to reclaim.
func (ix *DiskHashIndex) Clear(txn *Txn) ([]uint32, error) {
	all, err := ix.Pages()
	if err != nil {
		return nil, err
	}
	prims := append([]uint32(nil), ix.buckets[:ix.n0]...)
	keep := make(map[uint32]bool, 1+ix.n0)
	keep[ix.root] = true
	for _, pid := range prims {
		keep[pid] = true
	}
	var released []uint32
	for _, pid := range all {
		if !keep[pid] {
			released = append(released, pid)
		}
	}
	for _, pid := range prims {
		fr, err := ix.bp.GetMut(txn, pid)
		if err != nil {
			return nil, err
		}
		fr.Page().Init()
		if err := ix.bp.Unpin(fr, true); err != nil {
			return nil, err
		}
	}
	ix.dir = ix.dir[:1]
	ix.buckets = prims
	ix.level, ix.next, ix.count = 0, 0, 0
	fr, err := ix.bp.GetMut(txn, ix.root)
	if err != nil {
		return nil, err
	}
	fr.Page().Init()
	if err := ix.writeDirectory(fr); err != nil {
		ix.bp.Unpin(fr, true)
		return nil, err
	}
	return released, ix.bp.Unpin(fr, true)
}
