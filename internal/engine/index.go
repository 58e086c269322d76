// Indexed read paths: the engine surface the query planner chooses
// between. A point probe is an equality probe of the B+tree of the one
// shard owning the atom; a range scan walks every shard's B+tree. Both
// return STORED (shard-canonical) tuples —
// exactly the canonical tuples a heap scan of the same shards would
// produce — so a caller that re-applies its full predicate gets
// Select(R, p) whenever the index fetch is a superset of the matching
// tuples (the planner's soundness rules guarantee that; see
// internal/query/plan.go).
// Through a Database both read a pinned snapshot and take no latch;
// through a Tx they latch the shards and see the Tx's own writes.
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Bound is one end of a determinant-atom range; nil pointers stand for
// an unbounded side.
type Bound struct {
	Atom value.Atom
	Incl bool
}

func (b *Bound) toStore() *store.RangeBound {
	if b == nil {
		return nil
	}
	return &store.RangeBound{Atom: b.Atom, Incl: b.Incl}
}

// IndexInfo describes the named relation's physical access paths — the
// planner's catalog view. Every shard carries a B+tree over the fixed
// atoms, which answers equality probes and ordered scans.
type IndexInfo struct {
	Shards    int
	FixedAttr string         // attribute the canonical form is fixed on (index key)
	Schema    *schema.Schema // the relation's attributes, which record tests index
}

// IndexInfo reports the named relation's access paths: point probes
// and ranges on its fixed attribute.
func (db *Database) IndexInfo(name string) (IndexInfo, error) {
	r, err := db.Rel(name)
	if err != nil {
		return IndexInfo{}, err
	}
	return indexInfoOf(r), nil
}

// IndexInfo is the transaction view of the relation's access paths; it
// sees relations created (and respects drops) inside this transaction.
func (tx *Tx) IndexInfo(name string) (IndexInfo, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return IndexInfo{}, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return IndexInfo{}, err
	}
	return indexInfoOf(r), nil
}

func indexInfoOf(r *Rel) IndexInfo {
	return IndexInfo{
		Shards:    len(r.shards),
		FixedAttr: r.def.Schema.Attr(r.def.Order[len(r.def.Order)-1]).Name,
		Schema:    r.def.Schema,
	}
}

// LookupFixed returns the stored tuples whose fixed component contains
// atom a, via the owning shard's B+tree, as of the last commit: it
// reads a pinned snapshot and takes no latch. On a sharded relation
// those are the shard's stored, shard-canonical tuples, not tuples of
// the relation's canonical form (ReadRelation's); the planner never
// sends a sharded relation here.
func (db *Database) LookupFixed(name string, a value.Atom) (*core.Relation, error) {
	rel, _, err := db.readIndex(name, false, func(snap *store.Snap) ([]tuple.Tuple, int, error) {
		ts, err := snap.LookupFixed(name, a)
		return ts, 0, err
	})
	return rel, err
}

// ScanFixedRange returns the stored tuples with at least one fixed
// atom in [lo, hi] (nil = unbounded), via the shards' B+trees, plus the
// number of index pages read, as of the last commit: it reads a pinned
// snapshot and takes no latch. A K-sharded relation's fetch is
// re-canonicalized, as in Tx.ScanFixedRange.
func (db *Database) ScanFixedRange(name string, lo, hi *Bound) (*core.Relation, int, error) {
	return db.readIndex(name, true, func(snap *store.Snap) ([]tuple.Tuple, int, error) {
		return snap.ScanFixedRange(name, lo.toStore(), hi.toStore())
	})
}

// readIndex runs fetch, a point (ranged false) or range fetch, on a
// snapshot pinned for it and builds the answer (indexAnswer).
func (db *Database) readIndex(name string, ranged bool, fetch func(*store.Snap) ([]tuple.Tuple, int, error)) (*core.Relation, int, error) {
	if db.isClosed() {
		return nil, 0, fmt.Errorf("engine: read: %w", ErrClosed)
	}
	snap := db.st.PinSnapshot()
	defer snap.Close()
	def, ok := snap.Def(name)
	if !ok {
		return nil, 0, errNotFound(name)
	}
	ts, pages, err := fetch(snap)
	if err != nil {
		return nil, 0, err
	}
	rel, err := indexAnswer(def, ts, ranged)
	return rel, pages, err
}

// indexAnswer builds the answer relation from fetched tuples once,
// presized. A range fetch over K shards is re-canonicalized: it is the
// union of K shard-canonical partitions.
func indexAnswer(def store.RelationDef, ts []tuple.Tuple, ranged bool) (*core.Relation, error) {
	rel, err := core.FromTuples(def.Schema, ts)
	if err == nil && ranged && def.Shards > 1 {
		rel, _ = rel.CanonicalFromFlats(def.Order)
	}
	return rel, err
}

// LookupFixed returns the stored tuples whose fixed component contains
// atom a, as this transaction sees them (its own uncommitted writes
// included). Only the shard owning the atom is latched — concurrent
// statements on other shards proceed. On a sharded relation those are
// the shard's stored, shard-canonical tuples, not tuples of the
// relation's canonical form (ReadRelation's); the planner never sends
// a sharded relation here.
func (tx *Tx) LookupFixed(name string, a value.Atom) (*core.Relation, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return nil, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return nil, err
	}
	sh := r.shards[store.ShardOfAtom(a, len(r.shards))]
	if err := tx.latchShard(sh); err != nil {
		return nil, err
	}
	ts, err := r.rs.LookupFixed(a)
	if err != nil {
		return nil, err
	}
	return indexAnswer(r.rs.Def(), ts, false)
}

// ScanFixedRange returns the stored tuples with at least one fixed
// atom in [lo, hi] (nil = unbounded) as this transaction sees them,
// plus the index pages the scan read. Every shard latch is taken (a
// range spans the hash-partitioned shards). On a K-sharded relation
// the union of shard partitions is re-canonicalized, like
// ReadRelation; the planner only routes single-shard relations here,
// where the fetched tuples are canonical tuples of the relation
// verbatim.
func (tx *Tx) ScanFixedRange(name string, lo, hi *Bound) (*core.Relation, int, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.usable(); err != nil {
		return nil, 0, err
	}
	r, err := tx.rel(name)
	if err != nil {
		return nil, 0, err
	}
	if err := tx.latchRel(r); err != nil {
		return nil, 0, err
	}
	ts, pages, err := r.rs.ScanFixedRange(lo.toStore(), hi.toStore())
	if err != nil {
		return nil, 0, err
	}
	rel, err := indexAnswer(r.rs.Def(), ts, true)
	return rel, pages, err
}

// IndexPageStats reports every relation's index footprint by page role
// (B+tree inner/leaf) — the \stats surface that makes index growth
// observable. Empty (not nil) once the database is closed.
func (db *Database) IndexPageStats() (map[string]store.IndexPageCounts, error) {
	out := make(map[string]store.IndexPageCounts)
	if db.isClosed() {
		return out, nil
	}
	db.mu.RLock()
	rels := make(map[string]*Rel, len(db.rels))
	for n, r := range db.rels {
		rels[n] = r
	}
	db.mu.RUnlock()
	for name, r := range rels {
		c, err := r.rs.IndexPageCounts()
		if err != nil {
			return nil, fmt.Errorf("engine: index stats of %q: %w", name, err)
		}
		out[name] = c
	}
	return out, nil
}
