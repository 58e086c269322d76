package storage

import (
	"context"
	"fmt"
)

// Page-version MVCC. The pool keeps one logical clock, the committed
// LSN: every group commit publishes its pages under a single new LSN,
// assigned inside the same bp.mu critical section that marks the
// frames clean (the linearization point of the commit). A Snapshot
// pins the clock at its current value; Snapshot.Get then answers
// "what were this page's bytes when the clock read L?" without ever
// touching frame ownership or the callers' latches.
//
// Three facts make that answer cheap (see docs/mvcc.md):
//
//   - No-steal: the data file only ever holds committed bytes, so an
//     uncached page IS its current committed version.
//   - Base images: the moment a transaction claims a frame (GetMut /
//     NewPage), the pool copies the committed image aside into
//     bp.bases. Callers mutate frames in place between GetMut and
//     Unpin(dirty), so the copy must happen at claim time — by the
//     dirty-mark the bytes are already suspect.
//   - Retained versions: when a commit publishes a new LSN over a page
//     some pinned snapshot still needs, the superseded base moves into
//     bp.versions keyed by the LSN range it was current for. Unpinning
//     a snapshot garbage-collects whatever no remaining pin can read.

// pageVersion is a superseded committed image: it was the page's
// current content from lsn up to (but excluding) the next version's
// lsn — or the page's current lsn, for the newest retained entry.
type pageVersion struct {
	lsn uint64
	img *Page
}

// Snapshot is a pinned read view of the pool's committed state as of
// one commit LSN. It holds no latch and blocks no writer; writers
// commit past it freely while the pool retains whatever superseded
// images the snapshot can still read. Close unpins it (idempotent).
// A Snapshot is safe for concurrent use.
type Snapshot struct {
	bp  *BufferPool
	lsn uint64
}

// LSN reports the committed LSN the snapshot is pinned at.
func (s *Snapshot) LSN() uint64 { return s.lsn }

// PinSnapshot pins the current committed LSN and returns a read view
// of it. Must be paired with Close; until then the pool retains every
// superseded page image the snapshot can reach.
func (bp *BufferPool) PinSnapshot() *Snapshot {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s := &Snapshot{bp: bp, lsn: bp.lsn}
	bp.pins[s.lsn]++
	return s
}

// LSN returns the pool's current committed LSN (the value a snapshot
// pinned now would carry).
func (bp *BufferPool) LSN() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lsn
}

// PinnedSnapshots reports how many snapshot pins are outstanding.
func (bp *BufferPool) PinnedSnapshots() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, c := range bp.pins {
		n += c
	}
	return n
}

// MinPinnedLSN returns the smallest pinned snapshot LSN (ok=false when
// nothing is pinned). The store's ghost-relation GC consults it.
func (bp *BufferPool) MinPinnedLSN() (uint64, bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	min, any := uint64(0), false
	for s := range bp.pins {
		if !any || s < min {
			min, any = s, true
		}
	}
	return min, any
}

// Close unpins the snapshot and garbage-collects retained versions no
// remaining pin can read. Closing twice is safe; reading through a
// closed snapshot returns an error.
func (s *Snapshot) Close() {
	bp := s.bp
	if bp == nil {
		return
	}
	s.bp = nil
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.pins[s.lsn]--; bp.pins[s.lsn] <= 0 {
		delete(bp.pins, s.lsn)
	}
	bp.gcVersionsLocked()
}

// Get copies the page's bytes as committed at the snapshot's LSN into
// out. It never blocks on a frame owner: an uncommitted writer's frame
// is bypassed via its base image, and a too-new committed image via
// the retained version chain. A page that had no committed content at
// the snapshot LSN is an error — with correct retention it is
// unreachable, because chain pointers leading to it are themselves
// versioned.
func (s *Snapshot) Get(pid uint32, out *Page) error {
	bp := s.bp
	if bp == nil {
		return fmt.Errorf("storage: read through a closed snapshot")
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.lsns[pid] <= s.lsn {
		// The current committed image is the visible one.
		if fr, ok := bp.frames[pid]; ok {
			if fr.owner != nil || fr.dirty {
				// Claimed or dirtied by an uncommitted transaction: the
				// frame bytes are suspect (callers mutate in place), but
				// the claim captured the committed image aside.
				base, ok := bp.bases[pid]
				if !ok {
					// A fresh page that never committed (NewPage from the
					// pager, no prior life) — nothing existed at s.lsn.
					return fmt.Errorf("storage: page %d not committed at snapshot LSN %d", pid, s.lsn)
				}
				*out = *base
				return nil
			}
			*out = fr.page
			return nil
		}
		// Not cached: the data file holds the committed image. (A page
		// mid-commit — WAL-appended but publish pending — is always still
		// cached dirty, so this read can never observe the write-through
		// window half-applied.)
		fr, err := bp.getLocked(pid)
		if err != nil {
			return err
		}
		*out = fr.page
		bp.unpinReadLocked(fr)
		return nil
	}
	// The current image is newer than the snapshot: serve the newest
	// retained version at or before s.lsn.
	var best *pageVersion
	for i := range bp.versions[pid] {
		v := &bp.versions[pid][i]
		if v.lsn <= s.lsn && (best == nil || v.lsn > best.lsn) {
			best = v
		}
	}
	if best == nil {
		return fmt.Errorf("storage: page %d has no retained version at snapshot LSN %d (current %d)",
			pid, s.lsn, bp.lsns[pid])
	}
	*out = *best.img
	return nil
}

// unpinReadLocked releases a read pin taken via getLocked under bp.mu
// (the snapshot path's private unpin — no ownership bookkeeping).
func (bp *BufferPool) unpinReadLocked(fr *Frame) {
	fr.pins--
	if fr.pins == 0 && fr.elem == nil {
		fr.elem = bp.lru.PushFront(fr)
	}
}

// captureBaseLocked copies the frame's committed image aside, once per
// uncommitted claim. Callers must invoke it BEFORE the claimant can
// touch the frame bytes.
func (bp *BufferPool) captureBaseLocked(fr *Frame) {
	if _, ok := bp.bases[fr.pid]; ok {
		return
	}
	cp := fr.page
	bp.bases[fr.pid] = &cp
}

// retireBaseLocked runs at commit publish for one page: the old
// committed image either moves into the retained-version chain (some
// pinned snapshot can still read it) or is dropped.
func (bp *BufferPool) retireBaseLocked(pid uint32, oldLSN uint64) {
	base, ok := bp.bases[pid]
	if !ok {
		return
	}
	delete(bp.bases, pid)
	if bp.anyPinAtOrAboveLocked(oldLSN) {
		bp.versions[pid] = append(bp.versions[pid], pageVersion{lsn: oldLSN, img: base})
	}
}

// anyPinAtOrAboveLocked reports whether a pinned snapshot exists with
// LSN ≥ lo. (Every pin is ≤ the current committed LSN, so at commit
// publish this is exactly "someone can still read the old image".)
func (bp *BufferPool) anyPinAtOrAboveLocked(lo uint64) bool {
	for s := range bp.pins {
		if s >= lo {
			return true
		}
	}
	return false
}

// gcVersionsLocked drops retained versions no pinned snapshot can
// read. A version at lsn v serves pins in [v, next) where next is the
// following version's lsn — or the page's current lsn for the newest
// entry.
func (bp *BufferPool) gcVersionsLocked() {
	for pid, vs := range bp.versions {
		kept := vs[:0]
		for i := range vs {
			next := bp.lsns[pid]
			if i+1 < len(vs) {
				next = vs[i+1].lsn
			}
			if bp.anyPinInRangeLocked(vs[i].lsn, next) {
				kept = append(kept, vs[i])
			}
		}
		if len(kept) == 0 {
			delete(bp.versions, pid)
		} else {
			bp.versions[pid] = kept
		}
	}
}

func (bp *BufferPool) anyPinInRangeLocked(lo, hi uint64) bool {
	for s := range bp.pins {
		if s >= lo && s < hi {
			return true
		}
	}
	return false
}

// RetainedVersions reports how many superseded page images the pool is
// holding for pinned snapshots (a test/metrics hook).
func (bp *BufferPool) RetainedVersions() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, vs := range bp.versions {
		n += len(vs)
	}
	return n
}

// ScanHeapSnapshot walks a heap chain as of the snapshot: every page —
// including each Next pointer followed — is the committed image at the
// snapshot's LSN, so the walk observes one transaction boundary even
// while writers are splicing new tail pages or committing past it.
// fn's record slice aliases a private copy, valid until the next page.
// ctx cancels at page granularity.
func ScanHeapSnapshot(ctx context.Context, snap *Snapshot, first uint32, fn func(rid RID, rec []byte) bool) error {
	pid := first
	seen := make(map[uint32]bool)
	var pg Page
	for pid != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if seen[pid] {
			return fmt.Errorf("%w: page %d revisited", ErrChainCycle, pid)
		}
		seen[pid] = true
		if err := snap.Get(pid, &pg); err != nil {
			return err
		}
		stop := false
		pg.LiveRecords(func(slot int, rec []byte) bool {
			if !fn(RID{Page: pid, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
		pid = pg.Next()
	}
	return nil
}
