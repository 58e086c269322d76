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

// maxSpareBases bounds the spare list of base-image buffers: a commit
// returns each base no pin needs, a close each version none reads,
// and the next claims take them back, so small transactions copy
// bases without allocating. Past the bound (64 KiB) a buffer is left
// to the GC.
const maxSpareBases = 16

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
// remaining pin can read: none can become unreadable while another
// pin holds the same LSN, or when nothing is retained. Closing twice
// is safe; reading through a closed snapshot returns an error.
func (s *Snapshot) Close() {
	bp := s.bp
	if bp == nil {
		return
	}
	s.bp = nil
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.pins[s.lsn]--; bp.pins[s.lsn] > 0 {
		return
	}
	delete(bp.pins, s.lsn)
	if len(bp.versions) > 0 {
		bp.gcVersionsLocked()
	}
}

// View runs fn on the page's bytes as committed at the snapshot's LSN,
// in place: the clean frame, the base image of a frame an uncommitted
// transaction claimed, or a retained version; it never blocks on a
// frame owner. fn runs under bp.mu, which keeps those bytes still: a
// writer claims a frame (capturing its base) and a commit publishes
// under bp.mu, and bases and versions are filled and recycled under it.
// So fn must be short, must not keep p, and must not call into the
// pool. A page with no committed content at the snapshot LSN is an
// error (retention makes it unreachable: the chain pointers leading to
// it are versioned too), and so is any read of a failed pool.
func (s *Snapshot) View(pid uint32, fn func(p *Page) error) error {
	bp := s.bp
	if bp == nil {
		return fmt.Errorf("storage: read through a closed snapshot")
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.failed != nil {
		return bp.failed
	}
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
				return fn(base)
			}
			return fn(&fr.page)
		}
		// Not cached: the data file holds the committed image. (A page
		// mid-commit — WAL-appended but publish pending — is always still
		// cached dirty, so this read can never observe the write-through
		// window half-applied.)
		fr, err := bp.getLocked(pid)
		if err != nil {
			return err
		}
		defer bp.unpinReadLocked(fr)
		return fn(&fr.page)
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
	return fn(best.img)
}

// unpinReadLocked releases a read pin taken via getLocked under bp.mu
// (the snapshot path's private unpin — no ownership bookkeeping).
func (bp *BufferPool) unpinReadLocked(fr *Frame) {
	fr.pins--
	if fr.pins == 0 {
		bp.lru.MoveToFront(fr.elem)
	}
}

// captureBaseLocked copies the frame's committed image aside, once per
// uncommitted claim. Callers must invoke it BEFORE the claimant can
// touch the frame bytes.
func (bp *BufferPool) captureBaseLocked(fr *Frame) {
	if _, ok := bp.bases[fr.pid]; ok {
		return
	}
	cp := bp.newBaseLocked()
	*cp = fr.page
	bp.bases[fr.pid] = cp
}

// newBaseLocked returns a page buffer for a base image, from the spare
// list when it has one.
func (bp *BufferPool) newBaseLocked() *Page {
	if n := len(bp.spare); n > 0 {
		img := bp.spare[n-1]
		bp.spare = bp.spare[:n-1]
		return img
	}
	return new(Page)
}

// dropBaseLocked removes pid's base image, if any, and keeps its
// buffer as a spare, up to maxSpareBases. Nothing else holds a base:
// a snapshot reads it only under bp.mu.
func (bp *BufferPool) dropBaseLocked(pid uint32) {
	img, ok := bp.bases[pid]
	if !ok {
		return
	}
	delete(bp.bases, pid)
	bp.spareLocked(img)
}

// spareLocked keeps img, which no base or version holds any more, for
// the next claim, up to maxSpareBases.
func (bp *BufferPool) spareLocked(img *Page) {
	if len(bp.spare) < maxSpareBases {
		bp.spare = append(bp.spare, img)
	}
}

// retireBaseLocked runs at commit publish for one page: the old
// committed image either moves into the retained-version chain (some
// pinned snapshot can still read it) or goes back to the spare list.
func (bp *BufferPool) retireBaseLocked(pid uint32, oldLSN uint64) {
	base, ok := bp.bases[pid]
	if !ok || !bp.anyPinAtOrAboveLocked(oldLSN) {
		bp.dropBaseLocked(pid)
		return
	}
	delete(bp.bases, pid)
	bp.versions[pid] = append(bp.versions[pid], pageVersion{lsn: oldLSN, img: base})
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
			} else {
				bp.spareLocked(vs[i].img)
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
		if err := snap.View(pid, func(p *Page) error {
			pg = *p // a copy: fn runs without the pool's lock
			return nil
		}); err != nil {
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
