package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/update"
)

// latch is a shard's statement latch, owned by one transaction at a
// time and held until that transaction commits or rolls back (strict
// two-phase latching). Deadlocks between transactions holding several
// latches are avoided with the wait-die policy: a transaction that
// already holds a latch may WAIT only for an OLDER transaction (smaller
// id); waiting for a younger one fails immediately with ErrTxConflict.
// Any wait cycle would need strictly decreasing ages all the way around
// — impossible — and a transaction holding nothing (an autocommit
// statement acquiring its first latch) can wait unconditionally because
// nothing can be waiting on it.
type latch struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owner *Tx
	// waits counts contended acquisitions — the bench's latch-contention
	// metric.
	waits atomic.Int64
}

func newLatch() *latch {
	l := &latch{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// conflictError is an ErrTxConflict that remembers WHICH latch was
// refused, so the autocommit retry loop can park on it (holding
// nothing — always deadlock-safe) instead of busy-spinning while the
// holder finishes.
type conflictError struct {
	l       *latch
	ownerID uint64
}

func (e *conflictError) Error() string {
	return fmt.Sprintf("engine: latch held by older transaction %d: %v", e.ownerID, ErrTxConflict)
}

func (e *conflictError) Unwrap() error { return ErrTxConflict }

// awaitFree blocks until the latch has no owner (or the database
// closes). Callers must hold NO latches — the wait is then always
// legal, because a transaction holding nothing cannot be part of a
// wait cycle.
func (l *latch) awaitFree(db *Database) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.owner != nil && !db.isClosed() {
		l.cond.Wait()
	}
}

// acquire takes the latch for tx (reentrant: a no-op when tx already
// owns it), applying wait-die on contention.
func (l *latch) acquire(tx *Tx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner == tx {
		return nil
	}
	counted := false
	for l.owner != nil {
		if tx.db.isClosed() {
			return fmt.Errorf("engine: latch wait interrupted: %w", ErrClosed)
		}
		if tx.holdsAny() && tx.id > l.owner.id {
			return &conflictError{l: l, ownerID: l.owner.id}
		}
		if !counted {
			counted = true
			l.waits.Add(1)
		}
		l.cond.Wait()
	}
	l.owner = tx
	return nil
}

func (l *latch) release(tx *Tx) {
	l.mu.Lock()
	if l.owner == tx {
		l.owner = nil
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// interrupt wakes every waiter so it can observe the closed database.
func (l *latch) interrupt() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Tx is a multi-statement transaction: a handle whose statements
// (Insert, InsertMany, Delete, Create, Drop, ReadRelation) all apply or
// all don't. Every statement's write-through pages pool under ONE
// storage transaction (the buffer pool is no-steal, so nothing
// uncommitted reaches the data file), Commit makes them durable as one
// WAL batch — one fsync, merged with concurrently committing
// transactions — and Rollback discards the dirty frames, leaving the
// file bit-identical to the pre-Begin state.
//
// A Tx is used from one goroutine at a time. Every shard a statement
// touches is latched for the transaction's remaining lifetime, so
// writers outside the transaction block until Commit/Rollback (read
// committed) while the transaction itself reads its own writes; a
// write latches only the one shard owning its tuple, so transactions
// writing different shards of one relation run concurrently. A
// statement refused with ErrTxConflict (wait-die deadlock avoidance)
// leaves the transaction open and consistent — roll back and retry.
// After Commit or Rollback every method returns ErrTxDone.
type Tx struct {
	db  *Database
	ctx context.Context
	id  uint64

	// All maps are nil until first use: the autocommit wrappers mint a
	// Tx per statement, and most statements never touch the DDL maps.
	mu      sync.Mutex
	done    bool
	stx     *store.Txn         // lazily-begun storage transaction
	held    map[*relShard]bool // shard latches held until commit/rollback
	ddl     bool               // DDL latch held
	touched map[*relShard]bool // shards written under stx
	writes  []txWrite          // statements that changed a shard, oldest first (see undoWrites)
	events  stmtEvents         // the running statement's tuple events (see writeShard)
	failed  error              // a write that failed after its check: the Tx can only roll back
	creates map[string]*Rel    // pending creates still visible to this tx
	drops   map[string]*Rel    // pending drops
	// selfCreated names every relation this transaction created — even
	// one it later dropped — so rollback can forget their store entries
	// instead of restoring relations that no longer exist.
	selfCreated map[*Rel]string
}

// txWrite is one statement that changed the canonical form of sh.
type txWrite struct {
	sh     *relShard
	f      tuple.Flat
	insert bool
}

// undo applies the inverse of w to its shard's maintainer. Section 4's
// insertion and deletion are exact inverses on R*, and V_P is unique
// for a given R*, so the partition returns to its form before w. The
// inverse leaves the maintainer's Stats as it found them and writes no
// page: the maintainer has a sink only while writeShard runs it.
func (w txWrite) undo() {
	m := w.sh.maint.Load()
	st := m.Stats()
	if w.insert {
		m.Delete(w.f)
	} else {
		m.Insert(w.f)
	}
	m.SetStats(st)
}

// stmtEvents is the maintainer's sink for one statement: the tuples
// its Section-4 run composes (added) and decomposes (removed), in
// order.
type stmtEvents []tupleEvent

type tupleEvent struct {
	t     tuple.Tuple
	added bool
}

func (e *stmtEvents) TupleAdded(t tuple.Tuple)   { *e = append(*e, tupleEvent{t, true}) }
func (e *stmtEvents) TupleRemoved(t tuple.Tuple) { *e = append(*e, tupleEvent{t, false}) }

// Begin starts a transaction. The context governs the transaction's
// whole lifetime: statements fail once it is cancelled, relation scans
// check it at page-fetch granularity, and Commit on a cancelled context
// rolls back. A nil context means context.Background().
func (db *Database) Begin(ctx context.Context) (*Tx, error) {
	return db.begin(ctx, 0)
}

// begin is Begin with an optional pre-assigned id: the autocommit
// wrapper retries a conflicted statement under its ORIGINAL id, so the
// retry ages instead of staying forever-youngest (wait-die starvation
// freedom).
func (db *Database) begin(ctx context.Context, id uint64) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if db.isClosed() {
		return nil, fmt.Errorf("engine: begin: %w", ErrClosed)
	}
	if id == 0 {
		id = nextTxID()
	}
	tx := &Tx{db: db, ctx: ctx, id: id}
	db.txMu.Lock()
	db.openTxs[tx] = struct{}{}
	db.txMu.Unlock()
	return tx, nil
}

// Context returns the context the transaction was begun with.
func (tx *Tx) Context() context.Context { return tx.ctx }

func (tx *Tx) holdsAny() bool { return len(tx.held) > 0 || tx.ddl }

func (tx *Tx) usable() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.failed != nil {
		return tx.failed
	}
	if tx.db.isClosed() {
		return fmt.Errorf("engine: statement: %w", ErrClosed)
	}
	return tx.ctx.Err()
}

func (tx *Tx) usableWrite() error {
	if err := tx.usable(); err != nil {
		return err
	}
	if tx.db.readOnly {
		return fmt.Errorf("engine: statement: %w", ErrReadOnly)
	}
	return nil
}

// rel resolves a relation as this transaction sees it: its own pending
// creates first, its own pending drops as gone, the shared catalog
// otherwise.
func (tx *Tx) rel(name string) (*Rel, error) {
	if r, ok := tx.creates[name]; ok {
		return r, nil
	}
	if _, ok := tx.drops[name]; ok {
		return nil, errNotFound(name)
	}
	return tx.db.Rel(name)
}

// latchShard takes sh's statement latch for the rest of the
// transaction and re-checks the relation's dropped flag under it (the
// relation may have been dropped by a committed transaction while we
// waited — the dropper held every shard latch when it set the flag).
func (tx *Tx) latchShard(sh *relShard) error {
	if err := sh.latch.acquire(tx); err != nil {
		return err
	}
	if tx.held == nil {
		tx.held = make(map[*relShard]bool)
	}
	tx.held[sh] = true
	if sh.r.dropped {
		sh.latch.release(tx)
		delete(tx.held, sh)
		return errNotFound(sh.r.def.Name)
	}
	return nil
}

// latchRel takes EVERY shard latch of r (in shard order) — the
// whole-relation paths: reads, Drop, and relation-wide statistics.
func (tx *Tx) latchRel(r *Rel) error {
	for _, sh := range r.shards {
		if err := tx.latchShard(sh); err != nil {
			return err
		}
	}
	return nil
}

// latchDDL takes the database's DDL latch (serializing catalog
// mutations, and with them all catalog-page frame ownership) for the
// rest of the transaction.
func (tx *Tx) latchDDL() error {
	if tx.ddl {
		return nil
	}
	if err := tx.db.ddl.acquire(tx); err != nil {
		return err
	}
	tx.ddl = true
	return nil
}

// storage returns the storage transaction, begun at the first write.
func (tx *Tx) storage() *store.Txn {
	if tx.stx == nil {
		tx.stx = tx.db.st.Begin()
	}
	return tx.stx
}

// Insert adds a flat tuple to the named relation, maintaining the
// canonical form. It reports whether the relation changed.
func (tx *Tx) Insert(name string, f tuple.Flat) (bool, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.write(name, f, true)
}

// Delete removes a flat tuple from the named relation.
func (tx *Tx) Delete(name string, f tuple.Flat) (bool, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.write(name, f, false)
}

// InsertMany bulk-inserts flat tuples as statements of this one
// transaction, returning how many changed the relation.
func (tx *Tx) InsertMany(name string, fs []tuple.Flat) (int, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	n := 0
	for _, f := range fs {
		ch, err := tx.write(name, f, true)
		if err != nil {
			return n, err
		}
		if ch {
			n++
		}
	}
	return n, nil
}

// write is one Insert/Delete statement under the transaction: it
// resolves the relation as the transaction sees it, type-checks an
// insert, and writes on the shard owning the tuple.
func (tx *Tx) write(name string, f tuple.Flat, isInsert bool) (bool, error) {
	if err := tx.usableWrite(); err != nil {
		return false, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return false, err
	}
	if isInsert {
		if err := tx.db.typeCheck(r, f); err != nil {
			return false, err
		}
	}
	return tx.writeShard(r.shardFor(f), f, isInsert)
}

// writeShard runs one statement on sh, the shard owning f, for a Tx
// statement and for each op of a pipeline batch alike. Only sh is
// latched, so statements on other shards of the same relation — from
// other transactions — proceed concurrently.
//
// The maintainer runs first, with tx.events as its sink, so the
// statement's tuples are known before any is written. Every tuple it
// adds is checked against what the store can hold (store.Shard.Check);
// a refused statement is undone in memory, has written nothing, and
// leaves the transaction open. Only then are the events written under
// the storage transaction. A write that fails after the check (I/O, a
// failed pool, corruption) may be half done, so it is kept in
// tx.failed: every later statement returns it and Commit rolls back.
func (tx *Tx) writeShard(sh *relShard, f tuple.Flat, isInsert bool) (bool, error) {
	if err := tx.latchShard(sh); err != nil {
		return false, err
	}
	// materialize the shard's canonical partition on first touch, under
	// the latch we hold
	m, err := sh.maintainer()
	if err != nil {
		return false, err
	}
	tx.events = tx.events[:0]
	m.SetSink(&tx.events)
	var ch bool
	if isInsert {
		ch, err = m.Insert(f)
	} else {
		ch, err = m.Delete(f)
	}
	m.SetSink(nil)
	if err != nil || !ch {
		return ch, err
	}
	// a copy: the caller may reuse f once the statement returns
	w := txWrite{sh: sh, f: f.Clone(), insert: isInsert}
	for _, e := range tx.events {
		if e.added {
			if err := sh.ss.Check(e.t); err != nil {
				w.undo()
				return false, fmt.Errorf("engine: statement refused, nothing written: %w", err)
			}
		}
	}
	stx := tx.storage()
	if tx.touched == nil {
		tx.touched = make(map[*relShard]bool)
	}
	tx.touched[sh] = true
	tx.writes = append(tx.writes, w)
	for _, e := range tx.events {
		if e.added {
			err = sh.ss.Insert(stx, e.t)
		} else {
			err = sh.ss.Remove(stx, e.t)
		}
		if err != nil {
			tx.failed = fmt.Errorf("engine: write-through failed, the transaction can only roll back: %w", err)
			return false, tx.failed
		}
	}
	return true, nil
}

// Create registers a new empty relation, visible only to this
// transaction until Commit.
func (tx *Tx) Create(def RelationDef) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usableWrite(); err != nil {
		return err
	}
	def, err := normalizeDef(def)
	if err != nil {
		return err
	}
	if err := tx.latchDDL(); err != nil {
		return err
	}
	if _, ok := tx.creates[def.Name]; ok {
		return errExists(def.Name)
	}
	if _, ok := tx.drops[def.Name]; ok {
		// the durable catalog record is only tombstoned at commit; the
		// name cannot be reused within the same transaction
		return fmt.Errorf("engine: relation %q dropped in this transaction: %w", def.Name, ErrExists)
	}
	if _, err := tx.db.Rel(def.Name); err == nil {
		return errExists(def.Name)
	}
	rs, err := tx.db.st.CreateRelation(tx.storage(), store.RelationDef{
		Name: def.Name, Schema: def.Schema, Order: def.Order,
		FDs: def.FDs, MVDs: def.MVDs, Shards: def.Shards,
	})
	if err != nil {
		return err
	}
	def.Shards = rs.ShardCount()
	r := newRel(def, rs)
	// the relation is empty: publish an empty maintainer per shard
	// eagerly, each sinking to its own store shard. The relation is
	// private to this transaction: own every shard latch so our
	// statements pass (nobody else can even look it up until commit
	// publishes it).
	for _, sh := range r.shards {
		m, err := update.Adopt(core.NewRelation(def.Schema), def.Order)
		if err != nil {
			return err
		}
		sh.maint.Store(m)
		if err := tx.latchShard(sh); err != nil {
			return err
		}
	}
	if tx.creates == nil {
		tx.creates = make(map[string]*Rel)
		tx.selfCreated = make(map[*Rel]string)
	}
	tx.creates[def.Name] = r
	tx.selfCreated[r] = def.Name
	return nil
}

// Drop removes a relation. The removal is visible to other transactions
// only after Commit; until then they block on the relation's shard
// latches (all of which Drop takes).
func (tx *Tx) Drop(name string) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usableWrite(); err != nil {
		return err
	}
	if err := tx.latchDDL(); err != nil {
		return err
	}
	if r, ok := tx.creates[name]; ok {
		// dropping a relation created by this same transaction
		if err := tx.db.st.DropRelation(tx.stx, name); err != nil {
			return err
		}
		delete(tx.creates, name)
		tx.setDrop(name, r)
		return nil
	}
	if _, ok := tx.drops[name]; ok {
		return errNotFound(name)
	}
	r, err := tx.db.Rel(name)
	if err != nil {
		return err
	}
	if err := tx.latchRel(r); err != nil {
		return err
	}
	if err := tx.db.st.DropRelation(tx.storage(), name); err != nil {
		return err
	}
	tx.setDrop(name, r)
	return nil
}

func (tx *Tx) setDrop(name string, r *Rel) {
	if tx.drops == nil {
		tx.drops = make(map[string]*Rel)
	}
	tx.drops[name] = r
}

// ReadRelation returns a snapshot of the named relation as this
// transaction sees it — including its own uncommitted writes. Every
// shard latch is taken for the rest of the transaction (repeatable
// reads). The snapshot is the caller's to mutate; a K-sharded heap's
// union of shard partitions is merged back into the global canonical
// form. ctx (nil = the transaction's context) cancels the heap scan at
// page-fetch granularity.
func (tx *Tx) ReadRelation(ctx context.Context, name string) (*core.Relation, error) {
	return tx.ReadFiltered(ctx, name, nil)
}

// ReadFiltered is ReadRelation of the tuples that pass every test, as
// Database.ReadFiltered: nil reads all, and a K-sharded relation's read
// ignores the tests.
func (tx *Tx) ReadFiltered(ctx context.Context, name string, tests []encoding.AtomTest) (*core.Relation, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = tx.ctx
	}
	r, err := tx.rel(name)
	if err != nil {
		return nil, err
	}
	if err := tx.latchRel(r); err != nil {
		return nil, err
	}
	if len(r.shards) > 1 {
		tests = nil
	}
	rel, err := r.rs.LoadCtx(ctx, tests)
	if err != nil {
		return nil, err
	}
	if len(r.shards) > 1 {
		rel, _ = rel.CanonicalFromFlats(r.def.Order)
	}
	return rel, nil
}

// Stats reports size and maintenance statistics for the named relation
// as this transaction sees it (its own writes included); every shard
// latch is taken for the rest of the transaction.
func (tx *Tx) Stats(name string) (RelStats, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return RelStats{}, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return RelStats{}, err
	}
	if err := tx.latchRel(r); err != nil {
		return RelStats{}, err
	}
	rel, ops, err := r.canonical()
	if err != nil {
		return RelStats{}, err
	}
	st := statsOf(name, rel, ops)
	ic, err := r.rs.IndexPageCounts()
	if err != nil {
		return RelStats{}, err
	}
	st.IndexPages = &ic
	return st, nil
}

// ValidateDeps checks the named relation's declared dependencies
// against its expansion as this transaction sees it; every shard latch
// is taken for the rest of the transaction.
func (tx *Tx) ValidateDeps(name string) ([]Violation, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return nil, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return nil, err
	}
	if err := tx.latchRel(r); err != nil {
		return nil, err
	}
	rel, _, err := r.canonical()
	if err != nil {
		return nil, err
	}
	return validateOf(name, r, rel), nil
}

// Def returns the named relation's definition as this transaction sees
// it.
func (tx *Tx) Def(name string) (RelationDef, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return RelationDef{}, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return RelationDef{}, err
	}
	return r.def, nil
}

// Commit makes every statement of the transaction durable as ONE
// group-committed WAL batch (one fsync, shared with concurrently
// committing transactions), publishes its creates and drops, and
// releases its latches. A failed commit rolls the transaction back —
// memory and disk return to the pre-Begin state — and reports both, as
// does a commit under a cancelled context or after a failed
// write-through (tx.failed). On ErrFailed from the commit itself
// nothing is rolled back: the batch is in the log.
func (tx *Tx) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	if err := tx.ctx.Err(); err != nil {
		tx.rollbackLocked()
		return fmt.Errorf("engine: commit aborted (transaction rolled back): %w", err)
	}
	if tx.stx != nil {
		err := tx.failed
		if err == nil {
			if err = tx.db.st.Commit(tx.stx); errors.Is(err, ErrFailed) {
				tx.finish()
				return fmt.Errorf("engine: commit: %w", err)
			}
		}
		if err != nil {
			if rbErr := tx.rollbackLocked(); rbErr != nil {
				return fmt.Errorf("engine: commit failed (%v) and rollback failed: %w", err, rbErr)
			}
			return fmt.Errorf("engine: commit failed (transaction rolled back): %w", err)
		}
	}
	db := tx.db
	db.mu.Lock()
	for name, r := range tx.creates {
		db.rels[name] = r
	}
	for name, r := range tx.drops {
		r.dropped = true
		if db.rels[name] == r {
			delete(db.rels, name)
		}
		db.st.CompleteDrop(name)
	}
	db.mu.Unlock()
	tx.finish()
	return nil
}

// Rollback discards the transaction: every dirty frame is dropped from
// the buffer pool (no-steal guarantees nothing uncommitted reached the
// file, so the file is bit-identical to the pre-Begin state), each
// touched shard's canonical partition is returned to its pre-Begin
// form by undoWrites, and its heap insertion target is re-attached to
// the reverted pages. Latches are released and the
// handle is done.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	return tx.rollbackLocked()
}

func (tx *Tx) rollbackLocked() error {
	var err error
	if tx.stx != nil {
		err = tx.db.st.Rollback(tx.stx)
		for _, name := range tx.selfCreated {
			tx.db.st.ForgetRelation(name)
		}
		tx.undoWrites()
		for sh := range tx.touched {
			if _, created := tx.selfCreated[sh.r]; created {
				continue
			}
			if rerr := sh.ss.Rewind(); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	tx.finish()
	return err
}

// undoWrites undoes each statement in tx.writes, newest first, so each
// partition ends at its pre-Begin canonical form; the pages are
// reverted already. Relations the transaction created are discarded
// whole.
func (tx *Tx) undoWrites() {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		w := tx.writes[i]
		if _, created := tx.selfCreated[w.sh.r]; !created {
			w.undo()
		}
	}
}

// finish releases every latch and retires the handle.
func (tx *Tx) finish() {
	for sh := range tx.held {
		sh.latch.release(tx)
	}
	tx.held = nil
	if tx.ddl {
		tx.db.ddl.release(tx)
		tx.ddl = false
	}
	tx.done = true
	tx.db.txMu.Lock()
	delete(tx.db.openTxs, tx)
	tx.db.txMu.Unlock()
}
