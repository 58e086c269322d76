package store

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Store-level snapshots: a Snap is a pinned page-level snapshot
// (storage.Snapshot — one committed LSN on the pool's commit clock)
// that resolves each relation it reads by that LSN, on first use.
// Relation visibility rides the same clock: every RelStore carries the
// commit-LSN window [visibleAt, droppedAt) in which it exists,
// published by Store.Commit at the LSN the buffer pool assigned the
// transaction. A relation dropped while a Snap can still read it parks
// on the store's ghost list until no pin reaches below its droppedAt.
//
// The catalog marks publish when Store.Commit returns, a moment after
// the pages themselves publish inside the pool — so a Snap that
// resolves a name in that window may miss a just-committed create (or
// still list a just-committed drop). The skew is one-sided and safe: a
// listed relation's pages are always readable at the pin (retention
// keeps them), and sequential callers — pin after Commit returned —
// never observe it. See docs/mvcc.md.

// txnMarks records the catalog changes a transaction will publish at
// commit: relations it created (invisible until then) and relations it
// dropped (visible until then).
type txnMarks struct {
	creates []*RelStore
	drops   []*RelStore
}

// Snap is a consistent read view of the whole store as of one commit
// LSN: every relation it names is the one visible at that LSN, and
// every page read is served at it. It takes no relation latch and
// never blocks a writer; Close releases the page retention it causes.
// Pinning copies nothing. Safe for concurrent use.
type Snap struct {
	st *Store
	ps *storage.Snapshot

	mu   sync.Mutex
	last *RelStore // the relation rel resolved last
}

// PinSnapshot pins the current committed state: the returned Snap sees
// exactly the relations and tuples of the last published commit, no
// matter what uncommitted transactions or later commits do. Must be
// paired with Close.
func (s *Store) PinSnapshot() *Snap {
	return &Snap{st: s, ps: s.bp.PinSnapshot()}
}

// rel resolves name to the relation visible at the pin; its shards'
// heap heads and B+tree meta pages are fixed for its life, and all
// else is read through the pin. The last resolution is kept, so a
// read's Def and its fetch name one relation even in the skew window
// above. A dropped-then-recreated name cannot collide: the ghost is
// only visible below its droppedAt, the successor only at or above
// its (later) visibleAt.
func (sn *Snap) rel(name string) (*RelStore, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	st := sn.st
	if st == nil {
		return nil, fmt.Errorf("store: read through a closed snapshot")
	}
	if sn.last != nil && sn.last.def.Name == name {
		return sn.last, nil
	}
	lsn := sn.ps.LSN()
	visible := func(rs *RelStore) bool {
		return rs.visibleAt <= lsn && (rs.droppedAt == 0 || lsn < rs.droppedAt)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rs := st.rels[name]
	for _, g := range st.ghosts {
		if g.def.Name == name && visible(g) {
			rs = g
		}
	}
	if rs == nil || !visible(rs) {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	sn.last = rs
	return rs, nil
}

// Def returns the pinned definition of a visible relation.
func (sn *Snap) Def(name string) (RelationDef, bool) {
	rs, err := sn.rel(name)
	if err != nil {
		return RelationDef{}, false
	}
	return rs.def, true
}

// LoadCtx materializes a relation as of the pin point: the stored
// tuples that pass tests (nil: all), with cancellation checked at page
// granularity; a record the tests
// reject is checked but not decoded. The heap walks read every page —
// chain pointers included — through the pinned snapshot, so a
// concurrent writer splicing pages or committing tuples is invisible:
// the result is exactly the relation's content at the pin's
// transaction boundary. For a K-sharded relation the result is the
// UNION of the shard partitions (each shard-canonical, together not
// necessarily globally canonical); the engine re-canonicalizes when
// Def(name).Shards > 1.
func (sn *Snap) LoadCtx(ctx context.Context, name string, tests []encoding.AtomTest) (*core.Relation, error) {
	rs, err := sn.rel(name)
	if err != nil {
		return nil, err
	}
	rel := core.NewRelation(rs.def.Schema)
	for _, sh := range rs.shards {
		if err := scanRecords(ctx, name, rs.def.Schema.Degree(), tests, func(each func(storage.RID, []byte) bool) error {
			return storage.ScanHeapSnapshot(ctx, sn.ps, sh.heap.FirstPage(), each)
		}, func(_ storage.RID, t tuple.Tuple) bool {
			rel.Add(t)
			return true
		}); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// LookupFixed is RelStore.LookupFixed of the relation as of the pin,
// read through it without the shard's lock.
func (sn *Snap) LookupFixed(name string, a value.Atom) ([]tuple.Tuple, error) {
	rs, err := sn.rel(name)
	if err != nil {
		return nil, err
	}
	return rs.lookupFixed(sn.ps, a)
}

// ScanFixedRange is RelStore.ScanFixedRange of the relation as of the
// pin, read through it without the shards' locks.
func (sn *Snap) ScanFixedRange(name string, lo, hi *RangeBound) ([]tuple.Tuple, int, error) {
	rs, err := sn.rel(name)
	if err != nil {
		return nil, 0, err
	}
	return rs.scanFixedRange(sn.ps, lo, hi)
}

// Close releases the pin: retained page versions and ghost catalog
// entries no remaining pin needs are garbage-collected. Idempotent.
func (sn *Snap) Close() {
	st := sn.st
	if st == nil {
		return
	}
	sn.st = nil
	sn.ps.Close()
	st.mu.Lock()
	st.gcGhostsLocked()
	st.mu.Unlock()
}

// markCreateLocked records (under s.mu) that txn created rs: invisible
// to snapshots until the transaction's commit publishes it.
func (s *Store) markCreateLocked(txn *Txn, rs *RelStore) {
	m := s.pending[txn]
	if m == nil {
		m = &txnMarks{}
		s.pending[txn] = m
	}
	m.creates = append(m.creates, rs)
}

// markDropLocked records (under s.mu) that txn dropped rs: visible to
// snapshots until the transaction's commit publishes the drop.
func (s *Store) markDropLocked(txn *Txn, rs *RelStore) {
	m := s.pending[txn]
	if m == nil {
		m = &txnMarks{}
		s.pending[txn] = m
	}
	m.drops = append(m.drops, rs)
}

// publishMarks makes txn's catalog changes visible at its commit LSN.
// Called by Store.Commit after a successful CommitTxn.
func (s *Store) publishMarks(txn *Txn, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pending[txn]
	if m == nil {
		return
	}
	delete(s.pending, txn)
	for _, rs := range m.creates {
		rs.visibleAt = lsn
	}
	for _, rs := range m.drops {
		rs.droppedAt = lsn
	}
}

// dropMarksLocked forgets txn's unpublished catalog changes (rollback).
func (s *Store) dropMarksLocked(txn *Txn) {
	delete(s.pending, txn)
}

// gcGhostsLocked drops ghost relations no pinned snapshot can still
// see (every future pin lands at or above the current clock, which is
// at or above any droppedAt already published).
func (s *Store) gcGhostsLocked() {
	if len(s.ghosts) == 0 {
		return
	}
	min, any := s.bp.MinPinnedLSN()
	kept := s.ghosts[:0]
	for _, g := range s.ghosts {
		if any && min < g.droppedAt {
			kept = append(kept, g)
		}
	}
	for i := len(kept); i < len(s.ghosts); i++ {
		s.ghosts[i] = nil
	}
	s.ghosts = kept
}
