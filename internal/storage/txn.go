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
