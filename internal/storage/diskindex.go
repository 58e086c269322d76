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
//	                 ('H' n0:u16 level:u16 next:u32 nbuckets:u32,
//	                 fixed 13 bytes, rewritten in place by a split);
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
// level — the classic Litwin scheme.
//
// The store has not used this index since each shard's B+tree took
// over its lookups; nfr-spine's traced runs still replay it. So it
// keeps only what that replay calls: CreateDiskIndex, Put, Get,
// Delete and the split. There is no reattach, and Delete leaves an
// emptied page on its chain.
const (
	// indexInitBuckets is the bucket count of a fresh index (a power of
	// two; linear splitting doubles the address space level by level).
	indexInitBuckets = 2

	indexMetaTag = 'H'
	indexMetaLen = 13

	// maxIndexEntry is the largest encodable entry record: anything
	// bigger could never be placed on an empty page.
	maxIndexEntry = PageSize - pageHeaderSize - slotSize
)

func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// DiskHashIndex is a durable hash index: byte-string keys mapped to
// record ids (duplicates allowed), stored in pages behind a buffer
// pool. The struct itself is only a small in-memory mirror of the
// directory (bucket page ids plus the split state); all entries live
// in bucket pages. Callers serialize access per index.
type DiskHashIndex struct {
	bp      *BufferPool
	root    uint32   // first page of the directory chain
	dir     []uint32 // directory chain page ids
	buckets []uint32 // bucket primary page ids, in bucket order
	n0      int      // initial bucket count (power of two)
	level   int
	next    int // split pointer: the next bucket to split
}

// CreateDiskIndex allocates a fresh empty index under txn and returns
// it.
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

// writeDirectory fills a fresh directory root page with the meta record
// followed by every bucket pid.
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

// metaBytes encodes the meta record: the split state.
func (ix *DiskHashIndex) metaBytes() []byte {
	b := make([]byte, indexMetaLen)
	b[0] = indexMetaTag
	binary.LittleEndian.PutUint16(b[1:3], uint16(ix.n0))
	binary.LittleEndian.PutUint16(b[3:5], uint16(ix.level))
	binary.LittleEndian.PutUint32(b[5:9], uint32(ix.next))
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(ix.buckets)))
	return b
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
// or missing bytes are an error, never guessed at, which each caller
// wraps as ErrCorrupt with the page it read. The returned key aliases
// rec.
func decodeIndexEntry(rec []byte) (key []byte, rid RID, err error) {
	kl, n := binary.Uvarint(rec)
	if n <= 0 || kl > uint64(len(rec))-uint64(n) {
		return nil, RID{}, errors.New("bad entry key length")
	}
	rest := rec[n:]
	if uint64(len(rest)) != kl+6 {
		return nil, RID{}, fmt.Errorf("entry of %d bytes, want %d", len(rest), kl+6)
	}
	key = rest[:kl]
	rid.Page = binary.LittleEndian.Uint32(rest[kl : kl+4])
	rid.Slot = binary.LittleEndian.Uint16(rest[kl+4 : kl+6])
	return key, rid, nil
}

// chainLimit bounds bucket-chain walks without allocating a visited
// set on every probe (Get/Put/Delete are the engine's key-probe hot
// path): a chain with more pages than the file holds is provably
// cyclic.
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

// Put inserts a key → rid mapping (duplicates allowed) under txn. An
// insert that spills past its bucket's primary page triggers one linear
// split, which rewrites the meta record; any other Put dirties only its
// bucket's pages.
func (ix *DiskHashIndex) Put(txn *Txn, key []byte, rid RID) error {
	rec := appendIndexEntry(nil, key, rid)
	if len(rec) > maxIndexEntry {
		return fmt.Errorf("storage: index entry of %d bytes can never fit a page", len(rec))
	}
	spilled, err := ix.bucketInsert(txn, ix.buckets[ix.bucketOf(hashKey(key))], rec)
	if err != nil {
		return err
	}
	if !spilled {
		return nil
	}
	if err := ix.split(txn); err != nil {
		return err
	}
	return ix.writeMeta(txn)
}

// bucketInsert places rec in the bucket chain rooted at first, growing
// the overflow chain when every page is full. It reports whether the
// insert spilled past the primary page (the split trigger).
func (ix *DiskHashIndex) bucketInsert(txn *Txn, first uint32, rec []byte) (spilled bool, err error) {
	pid := first
	limit := ix.chainLimit()
	for steps := 0; ; {
		if steps++; steps > limit {
			return false, fmt.Errorf("%w: hash index bucket chain cycle at page %d", ErrCorrupt, pid)
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
			return fmt.Errorf("%w: hash index bucket %d: %v", ErrCorrupt, old, derr)
		}
		switch ix.bucketOf(hashKey(key)) {
		case old:
			keep = append(keep, rec)
		case newIdx:
			move = append(move, rec)
		default:
			return fmt.Errorf("%w: hash index entry rehashed outside split pair", ErrCorrupt)
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
			return nil, nil, fmt.Errorf("%w: hash index bucket chain cycle at page %d", ErrCorrupt, pid)
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

// writeMeta overwrites the meta record in place (fixed size, the slot
// never moves) so the persisted split state follows a split within the
// same transaction.
func (ix *DiskHashIndex) writeMeta(txn *Txn) error {
	fr, err := ix.bp.GetMut(txn, ix.root)
	if err != nil {
		return err
	}
	rec, gerr := fr.Page().Get(0)
	if gerr != nil || len(rec) != indexMetaLen || rec[0] != indexMetaTag {
		ix.bp.Unpin(fr, false)
		return fmt.Errorf("%w: hash index meta record missing from directory root %d", ErrCorrupt, ix.root)
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
			return fmt.Errorf("%w: hash index bucket chain cycle at page %d", ErrCorrupt, pid)
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
				derr = fmt.Errorf("%w: hash index page %d slot %d: %v", ErrCorrupt, pid, slot, err)
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
// mapping was removed. Buckets are never merged, and a page the delete
// empties stays on its chain.
func (ix *DiskHashIndex) Delete(txn *Txn, key []byte, rid RID) (bool, error) {
	foundPid, foundSlot := uint32(0), -1
	err := ix.walkBucket(ix.buckets[ix.bucketOf(hashKey(key))], func(pid uint32, slot int, k []byte, r RID) bool {
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
	if err := ix.bp.Unpin(fr, true); err != nil {
		return false, err
	}
	return true, nil
}
