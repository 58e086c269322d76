package storage

// Txn is a transaction handle for the buffer pool: the unit of
// atomicity and durability in WAL mode. Every page a transaction
// dirties is tracked in its private dirty set, and CommitTxn makes
// exactly that set durable as one WAL batch — concurrently committing
// transactions are merged by the group-commit scheduler into a single
// log write and fsync (see bufpool.go).
//
// A transaction is single-goroutine: begin it, mutate pages through
// GetMut/NewPage/Unpin, commit it. After a successful commit the handle
// is empty and may be reused for the next transaction.
//
// Ownership rule: a frame dirtied by an uncommitted transaction is
// owned by it, and a second transaction that wants to mutate the same
// page blocks in GetMut until the owner commits. Callers must layer
// their own latching so that blocking cannot form cycles (the store
// serializes statements per relation and funnels free-list use through
// a single-owner lock); the pool itself only enforces the one-writer
// invariant.
type Txn struct {
	bp    *BufferPool
	dirty map[uint32]*Frame // guarded by bp.mu

	// deferred commit work (single-goroutine, like the Txn itself):
	// callbacks registered by Defer, run once at the head of CommitTxn.
	// Index structures use this to fold many in-transaction meta
	// mutations (counts, roots) into at most one page write per commit
	// instead of one per Put/Delete.
	deferred     []deferredCall
	deferredKeys map[any]struct{}
}

type deferredCall struct {
	key any
	fn  func(*Txn) error
}

// Defer registers fn to run at the start of CommitTxn, deduplicated by
// key: a second Defer with the same key before the commit is a no-op.
// Callbacks run in registration order and may dirty pages under the
// transaction; an error aborts the commit (the transaction stays
// uncommitted, to be rolled back). Rollback discards
// pending callbacks; a successful commit clears them.
func (t *Txn) Defer(key any, fn func(*Txn) error) {
	if t.deferredKeys == nil {
		t.deferredKeys = make(map[any]struct{})
	}
	if _, ok := t.deferredKeys[key]; ok {
		return
	}
	t.deferredKeys[key] = struct{}{}
	t.deferred = append(t.deferred, deferredCall{key: key, fn: fn})
}

// clearDeferred drops pending deferred work (after commit or rollback).
func (t *Txn) clearDeferred() {
	t.deferred = nil
	t.deferredKeys = nil
}

// Begin starts an empty transaction against the pool.
func (bp *BufferPool) Begin() *Txn {
	return &Txn{bp: bp, dirty: make(map[uint32]*Frame)}
}

// DirtyPages returns the number of pages the transaction has dirtied
// and not yet committed.
func (t *Txn) DirtyPages() int {
	t.bp.mu.Lock()
	defer t.bp.mu.Unlock()
	return len(t.dirty)
}
