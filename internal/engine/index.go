// Indexed read paths: the engine surface the query planner chooses
// between. A point probe is an equality probe of the B+tree of the one
// shard owning the atom; a range scan walks every shard's B+tree. Both
// return STORED (shard-canonical) tuples —
// exactly the canonical tuples a heap scan of the same shards would
// produce — so a caller that re-applies its full predicate gets
// Select(R, p) whenever the index fetch is a superset of the matching
// tuples (the planner's soundness rules guarantee that; see
// internal/query/plan.go).
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
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
	FixedAttr string // attribute the canonical form is fixed on (index key)
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
	}
}

// LookupFixed returns the stored tuples whose fixed component contains
// atom a, via the owning shard's B+tree (autocommit: the shard is
// latched for the probe and released).
func (db *Database) LookupFixed(name string, a value.Atom) (*core.Relation, error) {
	var rel *core.Relation
	err := db.autocommit(func(tx *Tx) error {
		var err error
		rel, err = tx.LookupFixed(name, a)
		return err
	})
	return rel, err
}

// ScanFixedRange returns the stored tuples with at least one fixed
// atom in [lo, hi] (nil = unbounded), via the shards' B+trees,
// plus the number of index pages read (autocommit: every shard latch
// is taken for the scan and released).
func (db *Database) ScanFixedRange(name string, lo, hi *Bound) (*core.Relation, int, error) {
	var rel *core.Relation
	pages := 0
	err := db.autocommit(func(tx *Tx) error {
		var err error
		rel, pages, err = tx.ScanFixedRange(name, lo, hi)
		return err
	})
	return rel, pages, err
}

// LookupFixed returns the stored tuples whose fixed component contains
// atom a, as this transaction sees them (its own uncommitted writes
// included). Only the shard owning the atom is latched — concurrent
// statements on other shards proceed.
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
	rel := core.NewRelation(r.def.Schema)
	for _, t := range ts {
		rel.Add(t)
	}
	return rel, nil
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
	rel := core.NewRelation(r.def.Schema)
	for _, t := range ts {
		rel.Add(t)
	}
	if len(r.shards) > 1 {
		rel, _ = rel.CanonicalFromFlats(r.def.Order)
	}
	return rel, pages, nil
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
