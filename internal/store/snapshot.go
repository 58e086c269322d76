package store

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// Store-level snapshots: a Snap pairs a pinned page-level snapshot
// (storage.Snapshot — one committed LSN on the pool's commit clock)
// with the catalog as of that pin. Relation visibility rides the same
// clock: every RelStore carries the commit-LSN window [visibleAt,
// droppedAt) in which it exists, published by Store.Commit at the LSN
// the buffer pool assigned the transaction. A relation dropped while a
// Snap can still read it parks on the store's ghost list until no pin
// reaches below its droppedAt.
//
// The catalog marks publish when Store.Commit returns, a moment after
// the pages themselves publish inside the pool — so a Snap pinned in
// that window may miss a just-committed create (or still list a
// just-committed drop). The skew is one-sided and safe: a listed
// relation's pages are always readable at the pin (retention keeps
// them), and sequential callers — pin after Commit returned — never
// observe it. See docs/mvcc.md.

// txnMarks records the catalog changes a transaction will publish at
// commit: relations it created (invisible until then) and relations it
// dropped (visible until then).
type txnMarks struct {
	creates []*RelStore
	drops   []*RelStore
}

// snapRel is one relation frozen into a Snap: its definition and the
// chain head of every shard heap (all immutable for the life of the
// RelStore).
type snapRel struct {
	def    RelationDef
	firsts []uint32
}

// Snap is a consistent read view of the whole store as of one commit
// LSN: the catalog as pinned, and every page read served at that LSN.
// It takes no relation latch and never blocks a writer; Close releases
// the page retention it causes. Safe for concurrent use.
type Snap struct {
	st   *Store
	ps   *storage.Snapshot
	rels map[string]snapRel
}

// PinSnapshot pins the current committed state: the returned Snap sees
// exactly the relations and tuples of the last published commit, no
// matter what uncommitted transactions or later commits do. Must be
// paired with Close.
func (s *Store) PinSnapshot() *Snap {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.bp.PinSnapshot()
	lsn := ps.LSN()
	rels := make(map[string]snapRel, len(s.rels))
	add := func(rs *RelStore) {
		if rs.visibleAt <= lsn && (rs.droppedAt == 0 || lsn < rs.droppedAt) {
			firsts := make([]uint32, len(rs.shards))
			for i, sh := range rs.shards {
				firsts[i] = sh.heap.FirstPage()
			}
			rels[rs.def.Name] = snapRel{def: rs.def, firsts: firsts}
		}
	}
	for _, rs := range s.rels {
		add(rs)
	}
	// A dropped-then-recreated name cannot collide: the ghost is only
	// visible below its droppedAt, the successor only at or above its
	// (later) visibleAt.
	for _, g := range s.ghosts {
		add(g)
	}
	return &Snap{st: s, ps: ps, rels: rels}
}

// Def returns the pinned definition of a visible relation.
func (sn *Snap) Def(name string) (RelationDef, bool) {
	sr, ok := sn.rels[name]
	return sr.def, ok
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
	if sn.st == nil {
		return nil, fmt.Errorf("store: read through a closed snapshot")
	}
	sr, ok := sn.rels[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	rel := core.NewRelation(sr.def.Schema)
	for _, first := range sr.firsts {
		if err := scanRecords(ctx, name, sr.def.Schema.Degree(), tests, func(each func(storage.RID, []byte) bool) error {
			return storage.ScanHeapSnapshot(ctx, sn.ps, first, each)
		}, func(_ storage.RID, t tuple.Tuple) bool {
			rel.Add(t)
			return true
		}); err != nil {
			return nil, err
		}
	}
	return rel, nil
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
