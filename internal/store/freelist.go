package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// The free list is a heap chain rooted at page 2 whose records are
// 4-byte little-endian page ids of reclaimable pages (a dropped
// relation's chain). It is durable like any other page: pushes and pops
// mutate buffered pages that ride in the same commit batch as the
// transaction that caused them, so a crash can never disagree with the
// catalog about who owns a page. An in-memory mirror (pid + record id)
// avoids rescanning the chain on every allocation.
//
// Because the free list is shared between concurrent transactions, its
// use is transaction-scoped: the first push or pop by a transaction
// takes ownership (Store.freeOwner) until that transaction commits.
// Another transaction's push waits; another transaction's pop falls
// through to growing the file instead (recycling is an optimization,
// never worth blocking an allocation on). Without this, a page freed
// by an uncommitted drop could be recycled into another transaction's
// relation and committed first — a crash between the two commits would
// leave the page owned by both the old chain and the new one.

// freeRoot is the page id of the free-list heap's first page.
const freeRoot = 2

// freeEntry mirrors one free-list record.
type freeEntry struct {
	pid uint32
	rid storage.RID
}

// initFreeList creates the free-list heap in a fresh file; it must land
// on page freeRoot.
func (s *Store) initFreeList(txn *Txn) error {
	fh, err := storage.CreateHeap(s.bp, txn)
	if err != nil {
		return err
	}
	if fh.FirstPage() != freeRoot {
		return fmt.Errorf("store: free list allocated at page %d, want %d", fh.FirstPage(), freeRoot)
	}
	s.freeHeap = fh
	return nil
}

// loadFreeList attaches to the free-list heap of an existing file and
// mirrors its records.
func (s *Store) loadFreeList() error {
	fh, err := storage.OpenHeap(s.bp, freeRoot)
	if err != nil {
		return fmt.Errorf("%w: opening free list: %v", ErrCorrupt, err)
	}
	s.freeHeap = fh
	var badRec error
	err = fh.Scan(func(rid storage.RID, rec []byte) bool {
		if len(rec) != 4 {
			badRec = fmt.Errorf("%w: free-list record at %v has %d bytes", ErrCorrupt, rid, len(rec))
			return false
		}
		pid := binary.LittleEndian.Uint32(rec)
		if pid <= freeRoot || pid > s.pager.NumPages() {
			badRec = fmt.Errorf("%w: free-list entry for impossible page %d", ErrCorrupt, pid)
			return false
		}
		s.free = append(s.free, freeEntry{pid: pid, rid: rid})
		return true
	})
	if err != nil {
		return fmt.Errorf("%w: scanning free list: %v", ErrCorrupt, err)
	}
	return badRec
}

// freePages appends the given page ids to the free list under txn.
// When the free list is owned by a DIFFERENT uncommitted transaction
// the pages are left orphaned instead of waiting: the owner may be a
// long-lived engine transaction that commits minutes from now, and
// freePages runs with s.mu held on the drop path, so waiting here would
// stall every catalog lookup behind a user's open Tx (and could form a
// wait cycle the engine's latch ordering cannot see). Orphaned pages
// are the documented degraded mode — unreferenced and checksum-valid,
// reclaimed by the orphan sweep on the next open (see sweepOrphans).
// Failures mid-append leave the remaining pages orphaned too, never
// double-owned.
func (s *Store) freePages(txn *Txn, pids []uint32) error {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if s.freeOwner != nil && s.freeOwner != txn {
		return nil
	}
	s.freeOwner = txn
	for _, pid := range pids {
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], pid)
		rid, err := s.freeHeap.Insert(txn, rec[:])
		if err != nil {
			return err
		}
		s.free = append(s.free, freeEntry{pid: pid, rid: rid})
	}
	return nil
}

// recycle pops one free page for reuse under txn; it is the buffer
// pool's allocator hook. TryLock: the free list's own heap operations
// may allocate pages (growing the chain), and that re-entrant
// allocation must fall through to the pager rather than deadlock. A
// free list owned by a different uncommitted transaction also falls
// through — its entries may vanish if that transaction is a drop that
// never commits, so they are not safe to hand out yet.
func (s *Store) recycle(txn *Txn) (uint32, bool) {
	if !s.freeMu.TryLock() {
		return 0, false
	}
	defer s.freeMu.Unlock()
	if s.freeOwner != nil && s.freeOwner != txn {
		return 0, false
	}
	n := len(s.free)
	if n == 0 {
		return 0, false
	}
	s.freeOwner = txn
	e := s.free[n-1]
	if err := s.freeHeap.Delete(txn, e.rid); err != nil {
		return 0, false
	}
	s.free = s.free[:n-1]
	return e.pid, true
}

// releaseFree hands the free list back after txn commits (no-op when
// txn never touched it).
func (s *Store) releaseFree(txn *Txn) {
	s.freeMu.Lock()
	if s.freeOwner == txn {
		s.freeOwner = nil
		s.freeCond.Broadcast()
	}
	s.freeMu.Unlock()
}

// FreePages returns the number of pages currently on the free list.
func (s *Store) FreePages() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return len(s.free)
}

// ReferencedPages returns the set of pages the committed structures
// reach: the catalog chain, the free-list chain and its entries, and
// every relation's heap and index chains. Pages outside the set are
// orphans — the residue of uncommitted allocations (a crash can even
// leave such pages torn or zeroed, since nothing ordered their writes)
// — which are never read, are quarantined onto the free list by the
// sweep, and are re-initialized before reuse.
func (s *Store) ReferencedPages() (map[uint32]bool, error) {
	s.mu.Lock()
	rels := make(map[string]*RelStore, len(s.rels))
	for n, rs := range s.rels {
		rels[n] = rs
	}
	s.mu.Unlock()
	ref := make(map[uint32]bool)
	chains := [][]uint32{}
	catPages, err := s.catalog.Pages()
	if err != nil {
		return nil, fmt.Errorf("%w: walking catalog chain: %v", ErrCorrupt, err)
	}
	chains = append(chains, catPages)
	freePages, err := s.freeHeap.Pages()
	if err != nil {
		return nil, fmt.Errorf("%w: walking free-list chain: %v", ErrCorrupt, err)
	}
	chains = append(chains, freePages)
	for name, rs := range rels {
		pids, err := rs.pages()
		if err != nil {
			return nil, fmt.Errorf("%w: walking chains of %q: %v", ErrCorrupt, name, err)
		}
		chains = append(chains, pids)
	}
	for _, pids := range chains {
		for _, pid := range pids {
			ref[pid] = true
		}
	}
	s.freeMu.Lock()
	for _, e := range s.free {
		ref[e.pid] = true
	}
	s.freeMu.Unlock()
	return ref, nil
}

// SweepOrphans reclaims every allocated page referenced by no chain —
// not the catalog's, not the free list's, not any relation's heap or
// index chains, and not already a free-list entry — by pushing it onto
// the free list as one committed batch. Open runs it automatically
// after crash recovery (a sidecar on disk marks the open as crashed);
// cleanly-closed files skip it so a clean open never walks the heaps —
// call this explicitly (or let Save compaction rewrite the file) to
// reclaim orphans left by the degraded paths after a clean shutdown.
//
// The store must be QUIESCED: no transaction may be in flight, because
// pages an uncommitted transaction allocated are unreachable from the
// committed chains and would be swept onto the free list — once that
// transaction commits the page would be owned twice, and a later
// recycle would overwrite live data. (The automatic open-time run is
// trivially quiesced.)
func (s *Store) SweepOrphans() error { return s.sweepOrphans() }

// sweepOrphans walks every chain to compute the referenced-page set:
// orphans are the bounded residue of the degraded paths that trade
// leakage for progress (a drop while another transaction owned the
// free list, an aborted create's allocations, a rolled-back
// transaction's file growth); because they are unreferenced in the
// committed state, re-owning them here can never conflict with live
// data, and a crash mid-sweep just re-runs it on the next recovery. A
// clean database sweeps nothing and writes nothing.
func (s *Store) sweepOrphans() error {
	ref, err := s.ReferencedPages()
	if err != nil {
		return err
	}
	var orphans []uint32
	for pid := uint32(1); pid <= s.pager.NumPages(); pid++ {
		if !ref[pid] {
			orphans = append(orphans, pid)
		}
	}
	if len(orphans) == 0 {
		return nil
	}
	txn := s.Begin()
	if err := s.freePages(txn, orphans); err != nil {
		// reclaiming is an optimization; a failure just leaves the
		// orphans for the next open
		s.Rollback(txn)
		return nil
	}
	return s.Commit(txn)
}
