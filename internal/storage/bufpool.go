package storage

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Frame is a buffered page plus bookkeeping.
type Frame struct {
	pid   uint32
	page  Page
	dirty bool
	pins  int
	owner *Txn          // uncommitted transaction that dirtied (or claimed) the page
	elem  *list.Element // position in the LRU list, for the frame's whole life in the pool
}

// Page returns the buffered page for in-place reads and writes. The
// caller must hold a pin, and a mutating caller must have pinned via
// GetMut/NewPage with its transaction and call Unpin(dirty=true) after
// modifying.
func (fr *Frame) Page() *Page { return &fr.page }

// PID returns the frame's page id.
func (fr *Frame) PID() uint32 { return fr.pid }

// PoolStats is a snapshot of the buffer pool's counters. Overflows
// counts the times the pool grew past capacity because every unpinned
// frame was dirty and the WAL's no-steal rule forbade writing one out;
// Repairs counts pages whose data-file copy failed its checksum and was
// restored from the WAL's committed image.
//
// PinnedSnapshots and RetainedVersions are gauges, read when the
// snapshot is taken and never reset: the outstanding snapshot pins, and
// the superseded page images the pool holds for them.
type PoolStats struct {
	Hits      int
	Misses    int
	Evictions int
	Overflows int
	Repairs   int

	PinnedSnapshots  int
	RetainedVersions int
}

// ErrFailed is the sticky error of a pool whose data-file write-through
// failed after its group reached the log, or whose Checkpoint or
// SyncData failed (a data-file fsync or the log reset): that call, the
// group's commits, and every later CommitTxn, Get, GetMut, NewPage,
// snapshot read, Checkpoint and SyncData return it, and neither file is
// written again. A commit that returned it is durable in the log, and
// the next Open applies it.
var ErrFailed = errors.New("storage: write-through after commit failed; reopen to recover")

// commitReq is one transaction waiting in the group-commit queue.
type commitReq struct {
	txn    *Txn
	frames []*Frame
	lsn    uint64 // commit LSN assigned at publish (0 if the commit failed)
	err    error
	done   chan struct{}
}

// BufferPool caches pages with LRU eviction. Every cached frame stays on
// the LRU list, the last unpin moves it to the front, eviction skips
// pinned frames, and a miss reuses the frame it evicts. The pool is
// transactional and no-steal: every mutation
// happens under a Txn, a dirty page never reaches the data file before
// its transaction's batch is committed to the log, eviction takes only
// clean frames, and the pool temporarily overflows its capacity when
// none exists. Until a WAL is attached the pool is read-only (Get,
// Unpin(fr, false), stats): GetMut and NewPage refuse.
type BufferPool struct {
	mu        sync.Mutex
	ownerCond *sync.Cond // broadcast when frame ownership is released
	pager     *Pager
	wal       *WAL // nil = read-only pool
	capacity  int
	frames    map[uint32]*Frame
	lru       *list.List // of every cached *Frame, front = most recently unpinned

	// group-commit scheduler: committing transactions enqueue under
	// qmu; whoever holds leaderMu drains the queue and commits every
	// queued transaction with a single WAL write and fsync. ckptMu
	// excludes checkpoints while a commit is between its WAL append
	// and its data-file write-through.
	qmu      sync.Mutex
	queue    []*commitReq
	leaderMu sync.Mutex
	ckptMu   sync.RWMutex

	// allocate, when set, may return a recycled page id (from the
	// store's free list) instead of growing the file. Called without
	// bp.mu held: implementations may re-enter the pool.
	allocate func(txn *Txn) (uint32, bool)

	// MVCC state (see snapshot.go), all under bp.mu. lsn is the
	// committed LSN clock, bumped once per published commit group and
	// seeded at open from the recovered durable LSN (SetLSN) so
	// snapshot LSNs stay meaningful across restarts; nextLSN is the
	// allocator behind it — it advances for every commit group, even
	// one that failed before publish, so an LSN stamped into a page
	// image (and possibly partially written through) is never reused
	// for different content; lsns maps each page to the LSN of its
	// current committed image (absent = 0, "as old as the database");
	// bases holds the committed image of every frame currently claimed
	// by an uncommitted transaction, captured at claim time; versions
	// holds superseded committed images retained for pinned snapshots;
	// pins is the multiset of pinned snapshot LSNs.
	lsn      uint64
	nextLSN  uint64
	lsns     map[uint32]uint64
	bases    map[uint32]*Page
	versions map[uint32][]pageVersion
	spare    []*Page // base-image buffers no base or version holds, at most maxSpareBases
	pins     map[uint64]int
	failed   error // the sticky ErrFailed (see commitGroup)

	stats PoolStats
}

// NewBufferPool creates a pool of the given capacity (≥ 1).
func NewBufferPool(pager *Pager, capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d < 1", capacity)
	}
	bp := &BufferPool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[uint32]*Frame, capacity),
		lru:      list.New(),
		lsns:     make(map[uint32]uint64),
		bases:    make(map[uint32]*Page),
		versions: make(map[uint32][]pageVersion),
		pins:     make(map[uint64]int),
	}
	bp.ownerCond = sync.NewCond(&bp.mu)
	return bp, nil
}

// AttachWAL makes the pool writable: CommitTxn is the only path by
// which dirty pages reach the data file, and checksum failures in Get
// are repaired from the log's committed images when possible.
func (bp *BufferPool) AttachWAL(w *WAL) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.wal = w
}

// SetAllocator installs a recycled-page source consulted by NewPage
// before the file is grown (the store's free list). The requesting
// transaction is passed through so the implementation can attribute
// its free-list mutations to it.
func (bp *BufferPool) SetAllocator(fn func(txn *Txn) (uint32, bool)) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.allocate = fn
}

// SetLSN seeds the commit clock (and the LSN allocator behind it) with
// the durable LSN recovered at open — the maximum of the WAL's
// persisted clock and the page LSNs replayed or probed from the data
// file. It only moves the clock forward and must be called before the
// first commit.
func (bp *BufferPool) SetLSN(lsn uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if lsn > bp.lsn {
		bp.lsn = lsn
	}
	if lsn > bp.nextLSN {
		bp.nextLSN = lsn
	}
}

// Stats returns (hits, misses, evictions).
func (bp *BufferPool) Stats() (hits, misses, evictions int) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats.Hits, bp.stats.Misses, bp.stats.Evictions
}

// Snapshot returns all pool counters and gauges.
func (bp *BufferPool) Snapshot() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.statsLocked()
}

// TakeStats returns the counters and gauges, and zeroes the counters.
// The store uses it to bucket open-time I/O (recovery replay, catalog
// load, index rebuild) separately from steady-state traffic so hit
// rates stay honest.
func (bp *BufferPool) TakeStats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	st := bp.statsLocked()
	bp.stats = PoolStats{}
	return st
}

// statsLocked is the counters with the gauges filled in (bp.mu held).
func (bp *BufferPool) statsLocked() PoolStats {
	st := bp.stats
	for _, c := range bp.pins {
		st.PinnedSnapshots += c
	}
	for _, vs := range bp.versions {
		st.RetainedVersions += len(vs)
	}
	return st
}

// Get pins the page into the pool for reading, loading it if absent. A
// page read from disk is checksum-verified and structurally validated;
// a checksum failure is repaired from the WAL's committed image when
// one exists.
func (bp *BufferPool) Get(pid uint32) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.getLocked(pid)
}

// GetMut pins the page for mutation under txn: the frame is claimed
// for the transaction, blocking while a different uncommitted
// transaction owns it.
func (bp *BufferPool) GetMut(txn *Txn, pid uint32) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.wal == nil || txn == nil {
		return nil, fmt.Errorf("storage: page %d mutated outside a transaction on a WAL pool", pid)
	}
	for {
		fr, err := bp.getLocked(pid)
		if err != nil {
			return nil, err
		}
		if fr.owner == nil || fr.owner == txn {
			if fr.owner == nil {
				// First claim: the frame still holds the committed image.
				// Capture it now, before the claimant can touch the bytes
				// — snapshot readers bypass owned frames via this copy.
				bp.captureBaseLocked(fr)
			}
			fr.owner = txn
			return fr, nil
		}
		// Owned by another transaction: drop our pin while waiting (a
		// rollback may discard the frame entirely) and retry the
		// lookup from scratch once the owner commits or rolls back.
		// The owner's commit never waits on a claim, so the wait
		// always terminates.
		bp.unpinReadLocked(fr)
		bp.ownerCond.Wait()
	}
}

func (bp *BufferPool) getLocked(pid uint32) (*Frame, error) {
	if bp.failed != nil {
		return nil, bp.failed
	}
	if fr, ok := bp.frames[pid]; ok {
		bp.stats.Hits++
		fr.pins++
		return fr, nil
	}
	bp.stats.Misses++
	fr := bp.newFrameLocked(pid)
	if err := bp.pager.Read(pid, &fr.page); err != nil {
		bp.dropLocked(fr)
		return nil, err
	}
	if err := fr.page.VerifyChecksum(); err != nil {
		// A torn data-file write of a committed page: restore the
		// page from the log's committed image and heal the file.
		img, ok := Page{}, false
		if bp.wal != nil {
			img, ok = bp.wal.Image(pid)
		}
		if !ok {
			bp.dropLocked(fr)
			return nil, fmt.Errorf("page %d: %w", pid, err)
		}
		fr.page = img
		if werr := bp.pager.Write(pid, &fr.page); werr != nil {
			bp.dropLocked(fr)
			return nil, fmt.Errorf("page %d: repairing torn page: %w", pid, werr)
		}
		bp.stats.Repairs++
	}
	// Every page entering the pool from disk is validated once, so
	// downstream slot arithmetic never indexes out of range on a torn
	// or garbage page.
	if err := fr.page.Validate(); err != nil {
		bp.dropLocked(fr)
		return nil, fmt.Errorf("page %d: %w", pid, err)
	}
	return fr, nil
}

// NewPage allocates a fresh page — recycling one from the allocator
// hook when available — and returns it pinned, zero-initialized, and
// dirty under txn.
func (bp *BufferPool) NewPage(txn *Txn) (*Frame, error) {
	bp.mu.Lock()
	if bp.wal == nil || txn == nil {
		bp.mu.Unlock()
		return nil, errors.New("storage: page allocated outside a transaction on a WAL pool")
	}
	alloc, failed := bp.allocate, bp.failed
	bp.mu.Unlock()
	if failed != nil {
		return nil, failed
	}
	var pid uint32
	recycled := false
	if alloc != nil {
		if p, ok := alloc(txn); ok {
			pid = p
			recycled = true
		}
	}
	if pid == 0 {
		p, err := bp.pager.Allocate()
		if err != nil {
			return nil, err
		}
		pid = p
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[pid]; ok {
		// a recycled page still cached from its previous life
		if fr.pins > 0 {
			return nil, fmt.Errorf("storage: recycled page %d still pinned", pid)
		}
		if fr.owner != nil && fr.owner != txn {
			// the allocator hands a page to one transaction at a time,
			// so a foreign owner here is a latching bug, not a wait
			return nil, fmt.Errorf("storage: recycled page %d owned by another transaction", pid)
		}
		if fr.owner == nil {
			// The cached content is the page's last committed life; a
			// pinned snapshot may still reach it through a since-dropped
			// chain. Capture before Init wipes it.
			bp.captureBaseLocked(fr)
		}
		fr.page.Init()
		fr.pins = 1
		bp.markDirtyLocked(fr, txn)
		return fr, nil
	}
	fr := bp.newFrameLocked(pid)
	if recycled {
		// Uncached recycled page: its last committed life is on disk and
		// may still be snapshot-reachable. Best-effort capture — a page
		// that never made it to disk intact has no committed readers.
		if _, ok := bp.bases[pid]; !ok {
			img := bp.newBaseLocked()
			bp.bases[pid] = img
			if err := bp.pager.Read(pid, img); err != nil || img.VerifyChecksum() != nil {
				bp.dropBaseLocked(pid)
			}
		}
	}
	fr.page.Init()
	bp.markDirtyLocked(fr, txn)
	return fr, nil
}

func (bp *BufferPool) markDirtyLocked(fr *Frame, txn *Txn) {
	fr.dirty = true
	fr.owner = txn
	txn.dirty[fr.pid] = fr
}

// Unpin releases one pin; dirty marks the frame as modified and records
// it in the owning transaction's dirty set. A dirty unpin requires the
// frame to have been pinned via GetMut/NewPage under a transaction; a
// clean unpin of an unmodified claimed frame releases the claim.
func (bp *BufferPool) Unpin(fr *Frame, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", fr.pid)
	}
	if dirty {
		if fr.owner == nil {
			return fmt.Errorf("storage: dirty unpin of page %d outside a transaction", fr.pid)
		}
		bp.markDirtyLocked(fr, fr.owner)
	}
	fr.pins--
	if fr.pins == 0 {
		if !fr.dirty && fr.owner != nil {
			// claimed but never modified: release the claim so the
			// frame stays evictable and unblocks waiters; the base
			// captured at claim time matches the frame again
			fr.owner = nil
			bp.dropBaseLocked(fr.pid)
			bp.ownerCond.Broadcast()
		}
		bp.lru.MoveToFront(fr.elem)
	}
	return nil
}

// newFrameLocked caches a frame for pid, pinned once, clean and
// unowned, with stale page bytes for the caller to fill. At capacity it
// evicts the least recently used unpinned clean frame and reuses it,
// list element included. A dirty frame must not reach the data file
// before its batch commits (no-steal), so a pool with no clean unpinned
// frame overflows its capacity instead.
func (bp *BufferPool) newFrameLocked(pid uint32) *Frame {
	var fr *Frame
	for e := bp.lru.Back(); e != nil && fr == nil && len(bp.frames) >= bp.capacity; e = e.Prev() {
		if v := e.Value.(*Frame); v.pins == 0 && !v.dirty {
			fr = v
			delete(bp.frames, fr.pid)
			bp.stats.Evictions++
			bp.lru.MoveToFront(fr.elem)
		}
	}
	if fr == nil {
		if len(bp.frames) >= bp.capacity {
			bp.stats.Overflows++
		}
		fr = &Frame{}
		fr.elem = bp.lru.PushFront(fr)
	}
	fr.pid, fr.pins, fr.dirty, fr.owner = pid, 1, false, nil
	bp.frames[pid] = fr
	return fr
}

// dropLocked removes fr from the pool.
func (bp *BufferPool) dropLocked(fr *Frame) {
	bp.lru.Remove(fr.elem)
	delete(bp.frames, fr.pid)
}

// CommitTxn makes the transaction durable: its dirty pages are appended
// to the WAL as one batch and, after the commit fsync, written through
// to the data file and marked clean. Concurrently committing
// transactions are merged — the first committer becomes the leader,
// drains every queued transaction, and commits the whole group with a
// single log write and a single fsync (leader/follower group commit),
// so fsyncs per statement drop below one under load. A transaction with
// no dirty pages costs nothing. After a successful commit the handle is
// empty and may be reused.
//
// The returned LSN is the commit's position on the pool's committed-LSN
// clock: every page the transaction wrote is visible to snapshots
// pinned at or after it. An empty transaction returns the current
// clock (it is trivially "visible" everywhere).
func (bp *BufferPool) CommitTxn(txn *Txn) (uint64, error) {
	bp.mu.Lock()
	if bp.wal == nil {
		bp.mu.Unlock()
		return 0, fmt.Errorf("storage: CommitTxn on a pool without a WAL")
	}
	if len(txn.dirty) == 0 || bp.failed != nil {
		lsn, err := bp.lsn, bp.failed
		bp.mu.Unlock()
		return lsn, err
	}
	frames := make([]*Frame, 0, len(txn.dirty))
	for _, fr := range txn.dirty {
		frames = append(frames, fr)
	}
	bp.mu.Unlock()
	slices.SortFunc(frames, func(a, b *Frame) int { return cmp.Compare(a.pid, b.pid) })

	req := &commitReq{txn: txn, frames: frames, done: make(chan struct{})}
	bp.qmu.Lock()
	bp.queue = append(bp.queue, req)
	bp.qmu.Unlock()

	bp.leaderMu.Lock()
	bp.qmu.Lock()
	group := bp.queue
	bp.queue = nil
	bp.qmu.Unlock()
	if len(group) > 0 {
		// We are the leader for everything queued while the previous
		// leader worked — possibly including our own request, possibly
		// only others'.
		bp.commitGroup(group)
	}
	bp.leaderMu.Unlock()
	<-req.done // a previous leader may have committed us already
	return req.lsn, req.err
}

// PendingCommits reports how many transactions are queued behind the
// current group-commit leader (0 when the commit path is idle).
func (bp *BufferPool) PendingCommits() int {
	bp.qmu.Lock()
	defer bp.qmu.Unlock()
	return len(bp.queue)
}

// commitGroup commits every queued transaction as one WAL write and one
// fsync, then writes their pages through to the data file. Page images
// are stable while we read them: each frame is owned by a transaction
// that is blocked in CommitTxn, and claims by other transactions wait
// for the commit to finish. A write-through failure after the log
// append fails the pool: see ErrFailed.
func (bp *BufferPool) commitGroup(group []*commitReq) {
	// Allocate the group's commit LSN before anything is stamped or
	// logged. nextLSN advances even if this group fails before publish:
	// a failed group may have left pages stamped under this LSN, and
	// reusing it for different content would defeat the LSN-gated redo
	// rule.
	bp.mu.Lock()
	err := bp.failed
	newLSN := bp.nextLSN + 1
	bp.nextLSN = newLSN
	bp.mu.Unlock()
	bp.ckptMu.RLock()
	defer bp.ckptMu.RUnlock()
	batches := make([][]WALPage, len(group))
	for i, req := range group {
		batch := make([]WALPage, len(req.frames))
		for j, fr := range req.frames {
			// Stamp the commit LSN into the page image before the
			// checksum, so both the WAL record and the data file carry
			// it: recovery replays a logged image iff it is newer than
			// the on-disk page, and the clock is re-seeded from the
			// durable maximum at the next open.
			fr.page.SetLSN(newLSN)
			fr.page.StampChecksum()
			batch[j] = WALPage{PID: fr.pid, Img: &fr.page}
		}
		batches[i] = batch
	}
	if err == nil { // a failed pool appends nothing
		err = bp.wal.AppendGroup(batches, newLSN)
	}
	if err != nil {
		for _, req := range group {
			req.err = err
			close(req.done)
		}
		return
	}
	// The group is durable in the log; write the pages through, and stop
	// at the first failure.
	for _, req := range group {
		for _, fr := range req.frames {
			if err == nil {
				err = bp.pager.Write(fr.pid, &fr.page)
			}
		}
	}
	// Publish: the whole group becomes visible under one new committed
	// LSN, atomically with the frames going clean — a snapshot pinned
	// before this critical section sees none of the group's pages, one
	// pinned after sees all of them. Superseded committed images move
	// into the retained-version chain iff a pinned snapshot still needs
	// them (every pin is ≤ the pre-bump clock, so "pin ≥ old image's
	// LSN" is exactly reachability). A failed pool is marked before
	// ckptMu is released, so no checkpoint can reset the log under it.
	bp.mu.Lock()
	if err != nil {
		bp.failed = fmt.Errorf("%w: %v", ErrFailed, err)
		for _, req := range group {
			req.err = bp.failed
		}
	} else {
		for _, req := range group {
			for _, fr := range req.frames {
				bp.retireBaseLocked(fr.pid, bp.lsns[fr.pid])
				bp.lsns[fr.pid] = newLSN
				fr.dirty = false
				fr.owner = nil
			}
			clear(req.txn.dirty)
			req.lsn = newLSN
		}
		bp.lsn = newLSN
	}
	bp.ownerCond.Broadcast()
	bp.mu.Unlock()
	for _, req := range group {
		close(req.done)
	}
}

// Rollback discards every page the transaction dirtied: the frames are
// dropped from the pool, so the next read sees the last committed
// version from disk (or the WAL's repair image) — the no-steal rule
// guarantees nothing uncommitted ever reached the data file, and
// Rollback writes nothing. Ownership is released and waiters are woken.
// Callers must separately restore any in-memory structures derived from
// the rolled-back pages; the store layers that (see Store.Rollback).
// Rolling back while a page is still pinned is a caller bug and is
// reported.
func (bp *BufferPool) Rollback(txn *Txn) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var pinned []uint32
	for pid, fr := range txn.dirty {
		if fr.pins > 0 {
			pinned = append(pinned, pid)
			continue
		}
		bp.dropLocked(fr)
		bp.dropBaseLocked(pid) // next read reloads the same committed image
		fr.dirty = false
		fr.owner = nil
	}
	clear(txn.dirty)
	bp.ownerCond.Broadcast()
	if len(pinned) > 0 {
		return fmt.Errorf("storage: rollback of transaction with pinned pages %v", pinned)
	}
	return nil
}

// Checkpoint fsyncs the data file and resets the WAL (WAL.Reset: the
// header rewritten and fsynced, the write offset rewound to just past
// it, the file kept), excluding concurrent commits for the duration (a
// commit between its log append and its data write-through must not
// see the log reset under it). Dirty pages of uncommitted transactions
// are untouched — they are buffered only and survive in memory.
func (bp *BufferPool) Checkpoint() error { return bp.syncData(true) }

// SyncData fsyncs the data file under Checkpoint's exclusion and leaves
// the WAL alone, for a caller about to delete the log.
func (bp *BufferPool) SyncData() error { return bp.syncData(false) }

// syncData fails the pool when the fsync or the reset fails: after a
// failed fsync the data file's state is unknown (a retry may report
// success for pages the kernel dropped), so only the log, which holds
// every commit since the last checkpoint, is trusted, and the next Open
// replays it.
func (bp *BufferPool) syncData(resetLog bool) error {
	bp.ckptMu.Lock()
	defer bp.ckptMu.Unlock()
	bp.mu.Lock()
	wal, err := bp.wal, bp.failed
	bp.mu.Unlock()
	if wal == nil {
		return fmt.Errorf("storage: Checkpoint on a pool without a WAL")
	}
	if err != nil {
		return err
	}
	err = bp.pager.Sync()
	if err == nil && resetLog {
		err = wal.Reset()
	}
	if err != nil {
		bp.mu.Lock()
		bp.failed = fmt.Errorf("%w: %v", ErrFailed, err)
		err = bp.failed
		bp.mu.Unlock()
	}
	return err
}
