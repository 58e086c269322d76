package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Frame is a buffered page plus bookkeeping.
type Frame struct {
	pid   uint32
	page  Page
	dirty bool
	pins  int
	owner *Txn          // uncommitted transaction that dirtied (or claimed) the page
	elem  *list.Element // position in LRU list when unpinned
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
type PoolStats struct {
	Hits      int
	Misses    int
	Evictions int
	Overflows int
	Repairs   int
}

// ErrWriteThroughFailed marks a commit whose batch IS durable in the
// log (the commit fsync succeeded) but whose data-file write-through
// failed. The transaction's frames stay dirty and owned; retrying the
// commit relogs and rewrites them idempotently. Callers deciding
// between retry and rollback must know this case: rolling back after
// it leaves a committed batch in the log that recovery would replay,
// and Rollback must first undo whatever part of the write-through did
// reach the data file.
var ErrWriteThroughFailed = errors.New("storage: write-through after commit failed")

// commitReq is one transaction waiting in the group-commit queue.
type commitReq struct {
	txn    *Txn
	frames []*Frame
	lsn    uint64 // commit LSN assigned at publish (0 if the commit failed)
	err    error
	done   chan struct{}
}

// BufferPool caches pages with LRU eviction. Pinned frames are never
// evicted. The pool is transactional and no-steal: every mutation
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
	lru       *list.List // of *Frame, front = most recently unpinned

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
	pins     map[uint64]int

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

// Snapshot returns all pool counters.
func (bp *BufferPool) Snapshot() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// TakeStats returns the counters and zeroes them. The store uses it to
// bucket open-time I/O (recovery replay, catalog load, index rebuild)
// separately from steady-state traffic so hit rates stay honest.
func (bp *BufferPool) TakeStats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	st := bp.stats
	bp.stats = PoolStats{}
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
		fr.pins--
		if fr.pins == 0 {
			fr.elem = bp.lru.PushFront(fr)
		}
		bp.ownerCond.Wait()
	}
}

func (bp *BufferPool) getLocked(pid uint32) (*Frame, error) {
	if fr, ok := bp.frames[pid]; ok {
		bp.stats.Hits++
		if fr.pins == 0 && fr.elem != nil {
			bp.lru.Remove(fr.elem)
			fr.elem = nil
		}
		fr.pins++
		return fr, nil
	}
	bp.stats.Misses++
	bp.makeRoomLocked()
	fr := &Frame{pid: pid, pins: 1}
	if err := bp.pager.Read(pid, &fr.page); err != nil {
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
			return nil, fmt.Errorf("page %d: %w", pid, err)
		}
		fr.page = img
		if werr := bp.pager.Write(pid, &fr.page); werr != nil {
			return nil, fmt.Errorf("page %d: repairing torn page: %w", pid, werr)
		}
		bp.stats.Repairs++
	}
	// Every page entering the pool from disk is validated once, so
	// downstream slot arithmetic never indexes out of range on a torn
	// or garbage page.
	if err := fr.page.Validate(); err != nil {
		return nil, fmt.Errorf("page %d: %w", pid, err)
	}
	bp.frames[pid] = fr
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
	alloc := bp.allocate
	bp.mu.Unlock()
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
		if fr.elem != nil {
			bp.lru.Remove(fr.elem)
			fr.elem = nil
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
	bp.makeRoomLocked()
	fr := &Frame{pid: pid, pins: 1}
	if recycled {
		// Uncached recycled page: its last committed life is on disk and
		// may still be snapshot-reachable. Best-effort capture — a page
		// that never made it to disk intact has no committed readers.
		var prev Page
		if err := bp.pager.Read(pid, &prev); err == nil && prev.VerifyChecksum() == nil {
			if _, ok := bp.bases[pid]; !ok {
				cp := prev
				bp.bases[pid] = &cp
			}
		}
	}
	fr.page.Init()
	bp.frames[pid] = fr
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
			delete(bp.bases, fr.pid)
			bp.ownerCond.Broadcast()
		}
		fr.elem = bp.lru.PushFront(fr)
	}
	return nil
}

// makeRoomLocked evicts the least recently used clean frame if the
// pool is at capacity. A dirty frame must not reach the data file
// before its batch commits (no-steal), so a pool with no clean unpinned
// frame overflows its capacity instead.
func (bp *BufferPool) makeRoomLocked() {
	if len(bp.frames) < bp.capacity {
		return
	}
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		fr := e.Value.(*Frame)
		if fr.dirty {
			continue
		}
		bp.lru.Remove(e)
		fr.elem = nil
		delete(bp.frames, fr.pid)
		bp.stats.Evictions++
		return
	}
	bp.stats.Overflows++
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
	// Deferred work first (index meta flushes): it may dirty more
	// pages, so it must run before the dirty set is collected. An error
	// aborts the commit; the callbacks are kept registered so a retried
	// commit re-runs them (they rewrite current in-memory state, so
	// re-running is idempotent).
	for i := 0; i < len(txn.deferred); i++ {
		if err := txn.deferred[i].fn(txn); err != nil {
			return 0, err
		}
	}
	txn.clearDeferred()
	bp.mu.Lock()
	if bp.wal == nil {
		bp.mu.Unlock()
		return 0, fmt.Errorf("storage: CommitTxn on a pool without a WAL")
	}
	if len(txn.dirty) == 0 {
		lsn := bp.lsn
		bp.mu.Unlock()
		return lsn, nil
	}
	frames := make([]*Frame, 0, len(txn.dirty))
	for _, fr := range txn.dirty {
		frames = append(frames, fr)
	}
	bp.mu.Unlock()
	sort.Slice(frames, func(i, j int) bool { return frames[i].pid < frames[j].pid })

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
// for the commit to finish.
func (bp *BufferPool) commitGroup(group []*commitReq) {
	// Allocate the group's commit LSN before anything is stamped or
	// logged. nextLSN advances even if this group fails before publish:
	// a failed group may have left pages stamped (and possibly
	// partially written through) under this LSN, and reusing it for
	// different content would defeat the LSN-gated redo rule.
	bp.mu.Lock()
	newLSN := bp.nextLSN + 1
	bp.nextLSN = newLSN
	bp.mu.Unlock()
	bp.ckptMu.RLock()
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
	if err := bp.wal.AppendGroup(batches, newLSN); err != nil {
		bp.ckptMu.RUnlock()
		for _, req := range group {
			req.err = err
			close(req.done)
		}
		return
	}
	// The group is durable in the log; write the pages through. A
	// write-through failure is surfaced AND the failed transaction's
	// frames stay dirty and owned: the on-disk copies of its pages are
	// the previous committed versions (checksum-valid, so the repair
	// path would never fire), and marking them clean would let eviction
	// silently serve that stale state. Kept dirty, the pages keep
	// serving from the pool and a retried commit relogs and rewrites
	// them (idempotent full-page redo).
	for _, req := range group {
		for _, fr := range req.frames {
			if err := bp.pager.Write(fr.pid, &fr.page); err != nil && req.err == nil {
				req.err = fmt.Errorf("%w: %v", ErrWriteThroughFailed, err)
			}
		}
	}
	bp.ckptMu.RUnlock()
	// Publish: the whole group becomes visible under one new committed
	// LSN, atomically with the frames going clean — a snapshot pinned
	// before this critical section sees none of the group's pages, one
	// pinned after sees all of them. Superseded committed images move
	// into the retained-version chain iff a pinned snapshot still needs
	// them (every pin is ≤ the pre-bump clock, so "pin ≥ old image's
	// LSN" is exactly reachability).
	bp.mu.Lock()
	published := false
	for _, req := range group {
		// a failed write-through may still have put some of the pages in
		// the data file; Rollback has to take them out again
		req.txn.spilled = req.err != nil
		if req.err != nil {
			continue
		}
		published = true
		for _, fr := range req.frames {
			bp.retireBaseLocked(fr.pid, bp.lsns[fr.pid])
			bp.lsns[fr.pid] = newLSN
			fr.dirty = false
			fr.owner = nil
		}
		req.txn.dirty = make(map[uint32]*Frame)
		req.lsn = newLSN
	}
	if published {
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
// guarantees nothing uncommitted ever reached the data file, except
// after a failed write-through (ErrWriteThroughFailed), whose pages are
// first overwritten with their committed base images. Ownership is
// released and waiters are woken. Callers must separately restore
// any in-memory structures derived from the rolled-back pages; the
// store layers that (see Store.Rollback). Rolling back while a page is
// still pinned is a caller bug and is reported.
func (bp *BufferPool) Rollback(txn *Txn) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var pinned []uint32
	var restoreErr error
	for pid, fr := range txn.dirty {
		if fr.pins > 0 {
			pinned = append(pinned, pid)
			continue
		}
		if base, ok := bp.bases[pid]; ok && txn.spilled {
			// pages with no base were allocated by this transaction and
			// are unreferenced once the ones that point at them revert
			if err := bp.pager.Write(pid, base); err != nil && restoreErr == nil {
				restoreErr = fmt.Errorf("storage: rollback could not restore page %d after a failed write-through: %w", pid, err)
			}
		}
		if fr.elem != nil {
			bp.lru.Remove(fr.elem)
			fr.elem = nil
		}
		delete(bp.frames, pid)
		delete(bp.bases, pid) // next read reloads the same committed image
		fr.dirty = false
		fr.owner = nil
	}
	txn.dirty = make(map[uint32]*Frame)
	txn.spilled = false
	txn.clearDeferred()
	bp.ownerCond.Broadcast()
	if len(pinned) > 0 {
		return fmt.Errorf("storage: rollback of transaction with pinned pages %v", pinned)
	}
	return restoreErr
}

// Checkpoint fsyncs the data file and truncates the WAL back to its
// header, excluding concurrent commits for the duration (a commit
// between its log append and its data write-through must not see the
// log reset under it). Dirty pages of uncommitted transactions are
// untouched — they are buffered only and survive in memory.
func (bp *BufferPool) Checkpoint() error {
	bp.mu.Lock()
	wal := bp.wal
	bp.mu.Unlock()
	if wal == nil {
		return fmt.Errorf("storage: Checkpoint on a pool without a WAL")
	}
	bp.ckptMu.Lock()
	defer bp.ckptMu.Unlock()
	if err := bp.pager.Sync(); err != nil {
		return err
	}
	return wal.Reset()
}
