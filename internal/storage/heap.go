package storage

import (
	"context"
	"errors"
	"fmt"
)

// RID identifies a record: page id + slot.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the rid as page:slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile is an unordered file of variable-length records stored in a
// chain of slotted pages managed through a buffer pool.
type HeapFile struct {
	bp    *BufferPool
	first uint32 // first page of the chain
	last  uint32 // last page (insertion target)
	tail  bool   // last is resolved (false after OpenHeapAt, until the first Insert)
}

// CreateHeap starts a new heap file with one empty page, allocated
// under txn.
func CreateHeap(bp *BufferPool, txn *Txn) (*HeapFile, error) {
	fr, err := bp.NewPage(txn)
	if err != nil {
		return nil, err
	}
	pid := fr.PID()
	if err := bp.Unpin(fr, true); err != nil {
		return nil, err
	}
	return &HeapFile{bp: bp, first: pid, last: pid, tail: true}, nil
}

// ErrChainCycle is returned when a heap chain's next pointers loop —
// a corruption Page.Validate cannot see (the next field is arbitrary).
var ErrChainCycle = errors.New("storage: heap chain cycle")

// OpenHeapAt attaches to an existing heap chain WITHOUT walking it:
// the insertion target is resolved lazily by the first Insert. The
// store's fast reopen path uses it so attaching a relation costs zero
// page reads (scans never need the tail; only inserts do).
func OpenHeapAt(bp *BufferPool, first uint32) *HeapFile {
	return &HeapFile{bp: bp, first: first, last: first}
}

// OpenHeap attaches to an existing heap chain starting at first,
// eagerly walking to its last page.
func OpenHeap(bp *BufferPool, first uint32) (*HeapFile, error) {
	h := &HeapFile{bp: bp, first: first, last: first, tail: true}
	// walk to the end of the chain
	pid := first
	seen := make(map[uint32]bool)
	for {
		if seen[pid] {
			return nil, fmt.Errorf("%w: page %d revisited", ErrChainCycle, pid)
		}
		seen[pid] = true
		fr, err := bp.Get(pid)
		if err != nil {
			return nil, err
		}
		next := fr.Page().Next()
		if err := bp.Unpin(fr, false); err != nil {
			return nil, err
		}
		if next == 0 {
			h.last = pid
			return h, nil
		}
		pid = next
	}
}

// FirstPage returns the id of the chain's first page (persist this to
// reopen the heap).
func (h *HeapFile) FirstPage() uint32 { return h.first }

// Pages returns every page id of the chain in order. The store's drop
// path uses it to hand a relation's pages to the free list.
func (h *HeapFile) Pages() ([]uint32, error) {
	var pids []uint32
	pid := h.first
	seen := make(map[uint32]bool)
	for pid != 0 {
		if seen[pid] {
			return nil, fmt.Errorf("%w: page %d revisited", ErrChainCycle, pid)
		}
		seen[pid] = true
		pids = append(pids, pid)
		fr, err := h.bp.Get(pid)
		if err != nil {
			return nil, err
		}
		next := fr.Page().Next()
		if err := h.bp.Unpin(fr, false); err != nil {
			return nil, err
		}
		pid = next
	}
	return pids, nil
}

// Insert stores a record under txn, growing the chain as needed. After
// a lazy attach (OpenHeapAt) the first Insert walks the chain once to
// find the insertion target.
func (h *HeapFile) Insert(txn *Txn, rec []byte) (RID, error) {
	if !h.tail {
		if err := h.Rewind(); err != nil {
			return RID{}, err
		}
	}
	fr, err := h.bp.GetMut(txn, h.last)
	if err != nil {
		return RID{}, err
	}
	slot, err := fr.Page().Insert(rec)
	if err == ErrPageFull {
		// compact once, retry, then chain a new page
		fr.Page().Compact()
		slot, err = fr.Page().Insert(rec)
		if err == ErrPageFull {
			nf, nerr := h.bp.NewPage(txn)
			if nerr != nil {
				h.bp.Unpin(fr, true)
				return RID{}, nerr
			}
			fr.Page().SetNext(nf.PID())
			if uerr := h.bp.Unpin(fr, true); uerr != nil {
				h.bp.Unpin(nf, false)
				return RID{}, uerr
			}
			h.last = nf.PID()
			slot, err = nf.Page().Insert(rec)
			if err != nil {
				h.bp.Unpin(nf, false)
				return RID{}, err
			}
			rid := RID{Page: nf.PID(), Slot: uint16(slot)}
			return rid, h.bp.Unpin(nf, true)
		}
	}
	if err != nil {
		h.bp.Unpin(fr, false)
		return RID{}, err
	}
	rid := RID{Page: h.last, Slot: uint16(slot)}
	return rid, h.bp.Unpin(fr, true)
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	fr, err := h.bp.Get(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := fr.Page().Get(int(rid.Slot))
	if err != nil {
		h.bp.Unpin(fr, false)
		return nil, err
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	return cp, h.bp.Unpin(fr, false)
}

// Delete tombstones the record at rid under txn.
func (h *HeapFile) Delete(txn *Txn, rid RID) error {
	fr, err := h.bp.GetMut(txn, rid.Page)
	if err != nil {
		return err
	}
	derr := fr.Page().Delete(int(rid.Slot))
	uerr := h.bp.Unpin(fr, derr == nil)
	if derr != nil {
		return derr
	}
	return uerr
}

// Rewind recomputes the chain's insertion target by walking the next
// pointers from the first page. A transaction rollback can discard a
// freshly chained tail page from the pool, leaving the cached last
// pointer naming a page that is no longer on the chain; callers
// restoring in-memory state after a rollback re-walk here.
func (h *HeapFile) Rewind() error {
	pid := h.first
	seen := make(map[uint32]bool)
	for {
		if seen[pid] {
			return fmt.Errorf("%w: page %d revisited", ErrChainCycle, pid)
		}
		seen[pid] = true
		fr, err := h.bp.Get(pid)
		if err != nil {
			return err
		}
		next := fr.Page().Next()
		if err := h.bp.Unpin(fr, false); err != nil {
			return err
		}
		if next == 0 {
			h.last = pid
			h.tail = true
			return nil
		}
		pid = next
	}
}

// Scan calls fn for every live record in the heap in chain order,
// stopping early when fn returns false. The record slice is only valid
// during the call.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	return h.ScanCtx(context.Background(), fn)
}

// ScanCtx is Scan with cancellation checked at page-fetch granularity:
// before each page is pulled through the buffer pool the context is
// consulted, so a cancelled scan stops touching the pool immediately
// instead of walking the rest of the chain.
func (h *HeapFile) ScanCtx(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	pid := h.first
	seen := make(map[uint32]bool)
	for pid != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if seen[pid] {
			return fmt.Errorf("%w: page %d revisited", ErrChainCycle, pid)
		}
		seen[pid] = true
		fr, err := h.bp.Get(pid)
		if err != nil {
			return err
		}
		stop := false
		fr.Page().LiveRecords(func(slot int, rec []byte) bool {
			if !fn(RID{Page: pid, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		next := fr.Page().Next()
		if err := h.bp.Unpin(fr, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
		pid = next
	}
	return nil
}

// Stats summarizes heap occupancy.
type HeapStats struct {
	Pages       int
	LiveRecords int
	LiveBytes   int
	FreeBytes   int
}

// Stats walks the chain and reports occupancy.
func (h *HeapFile) Stats() (HeapStats, error) {
	var st HeapStats
	pid := h.first
	seen := make(map[uint32]bool)
	for pid != 0 {
		if seen[pid] {
			return st, fmt.Errorf("%w: page %d revisited", ErrChainCycle, pid)
		}
		seen[pid] = true
		fr, err := h.bp.Get(pid)
		if err != nil {
			return st, err
		}
		st.Pages++
		st.FreeBytes += fr.Page().FreeSpace()
		fr.Page().LiveRecords(func(_ int, rec []byte) bool {
			st.LiveRecords++
			st.LiveBytes += len(rec)
			return true
		})
		next := fr.Page().Next()
		if err := h.bp.Unpin(fr, false); err != nil {
			return st, err
		}
		pid = next
	}
	return st, nil
}
