package store

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/value"
)

// ShardOfAtom maps a determinant atom to its shard ordinal in a
// K-sharded relation: FNV-1a over the atom's stable encoding, mod K.
// The encoding (not Go's map iteration or pointer identity) keys the
// hash, so the routing is deterministic across restarts — the invariant
// the catalog relies on is that every tuple whose fixed component
// contains atom a lives in shard ShardOfAtom(a, K). Atoms value.Compare
// calls equal must route alike, so −0.0 hashes as +0.0 (the index key
// collapses them the same way).
func ShardOfAtom(a value.Atom, k int) int {
	if k <= 1 {
		return 0
	}
	if a.K == value.Float && a.F == 0 {
		a.F = 0 // −0.0 == 0 holds; store the positive zero's bits
	}
	h := fnv.New32a()
	h.Write(encoding.AppendAtom(nil, a))
	return int(h.Sum32() % uint32(k))
}

// Shard is one heap chain of a relation plus the one durable index that
// describes it: an ordered B+tree holding one (atom, RID) entry per atom
// of each tuple's fixed (determinant) component, keyed by
// encoding.AppendOrderedAtom so that two keys are byte-equal exactly
// when value.Compare calls the atoms equal. The tree answers point
// lookups by determinant value (the NFR analogue of a key probe), range
// predicates over it, and the write-through delete path's search for
// its victim record (see findLocked for what that costs).
//
// A classic relation has exactly one shard; a K-sharded relation
// partitions its canonical tuples across K shards by ShardOfAtom of the
// determinant, each shard holding the Section-4 canonical form of its
// own partition. Because a shard owns a disjoint set of pages (its heap
// chain and its index), statements on different shards
// of one relation dirty disjoint frames and commit concurrently through
// the merged group commit — the union of the shard canonical forms is
// re-canonicalized on read (engine side) to recover the global V_P.
//
// Index mutations ride the same transaction as the heap mutation that
// caused them, so a commit makes heap and index durable as one batch
// and a crash recovers them on the same boundary; reopening attaches to
// the persisted tree in one page read instead of rebuilding by heap
// scan. VerifyIndex remains the heap-scan oracle: it checks the
// durable index against the heap.
//
// A Shard keeps no statement state. Every write takes the storage
// transaction it belongs to and returns its error: Insert and Remove
// are (txn, tuple) -> error, and Check tells beforehand whether Insert
// can store a tuple at all. Whoever drives them owns the transaction's
// boundary; in the engine that is the Tx holding the shard's latch,
// which also serializes statements per shard. mu only
// keeps the engine's unlatched readers (IndexPageStats, a lazy
// materialization through Rel.Relation) from seeing page bytes
// mid-mutation.
type Shard struct {
	st  *Store
	def RelationDef
	ord int // shard ordinal within the relation

	heap *storage.HeapFile

	mu     sync.Mutex
	rangeD *storage.BTree // ordered determinant atom -> RID
}

// RelStore is one relation's on-disk realization: its shards (one for
// the classic layout) behind a thin router. Writes of canonical tuples
// route to the owning shard by determinant atom; reads union the
// shards' heaps. Callers that partition work per shard (the engine's
// concurrent write path) address shards directly via Shard(i).
type RelStore struct {
	st     *Store
	def    RelationDef
	catRID storage.RID

	// Snapshot visibility window, guarded by st.mu (not shard mu): the
	// relation exists for pins in [visibleAt, droppedAt). 0/0 means
	// "since before any pin, still live"; a pending create sits at
	// visibleAt = MaxUint64 until its commit publishes the real LSN.
	// See store snapshot.go.
	visibleAt uint64
	droppedAt uint64

	shards []*Shard
}

// fixedAttr returns the schema position of the last-nested attribute —
// the component the canonical form is fixed on when the nest order
// follows the paper's Section 3.4 guidance.
func (r *Shard) fixedAttr() int { return r.def.Order[len(r.def.Order)-1] }

// openRelStore attaches to an existing relation. The attach touches no
// heap page at all: each shard's B+tree meta page describes the tree.
func openRelStore(s *Store, ce catalogEntry) (*RelStore, error) {
	shards := make([]*Shard, 0, len(ce.shards))
	for ord, rt := range ce.shards {
		rangeD, err := storage.OpenBTree(s.bp, rt.rangeRoot)
		if err != nil {
			return nil, wrapCorrupt(err, "opening index %d of %q", ord, ce.def.Name)
		}
		heap := storage.OpenHeapAt(s.bp, rt.heapFirst)
		shards = append(shards, &Shard{st: s, def: ce.def, ord: ord, heap: heap, rangeD: rangeD})
	}
	return &RelStore{st: s, def: ce.def, catRID: ce.rid, shards: shards}, nil
}

// Def returns the relation's durable definition.
func (r *RelStore) Def() RelationDef { return r.def }

// ShardCount returns the number of heap chains the relation is
// partitioned across (1 for the classic layout).
func (r *RelStore) ShardCount() int { return len(r.shards) }

// Shard returns the i-th shard for callers that partition their work
// per shard (the engine's concurrent write path).
func (r *RelStore) Shard(i int) *Shard { return r.shards[i] }

// shardOfTuple routes a canonical tuple by (any) one atom of its fixed
// component — the shard invariant guarantees they all agree.
func (r *RelStore) shardOfTuple(t tuple.Tuple) *Shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.shards[ShardOfAtom(t.Set(r.shards[0].fixedAttr()).At(0), len(r.shards))]
}

func (r *Shard) indexTuple(txn *Txn, t tuple.Tuple, rid storage.RID) error {
	for _, a := range t.Set(r.fixedAttr()).Atoms() {
		if err := r.rangeD.Put(txn, encoding.AppendOrderedAtom(nil, a), rid); err != nil {
			return err
		}
	}
	return nil
}

// unindexTuple drops the tuple's entries and returns the leaves the
// tree shed (emptied by the deletes and unlinked) to the free list
// under the same transaction. The free is best-effort: a refused one
// (foreign free-list owner) just orphans the pages until the next
// open-time sweep, exactly like the drop path's degraded mode. The
// shed leaves are drained on every return, so none outlives the
// statement: after a failed delete the transaction is rolled back,
// which relinks them.
func (r *Shard) unindexTuple(txn *Txn, t tuple.Tuple, rid storage.RID) error {
	var err error
	for _, a := range t.Set(r.fixedAttr()).Atoms() {
		if _, err = r.rangeD.Delete(txn, encoding.AppendOrderedAtom(nil, a), rid); err != nil {
			break
		}
	}
	if released := r.rangeD.TakeReleased(); len(released) > 0 && err == nil {
		_ = r.st.freePages(txn, released)
	}
	return err
}

// Insert appends one canonical tuple to the owning shard's heap under
// txn and indexes it. For K-sharded relations the tuple must be a
// shard-canonical tuple (all fixed atoms in one shard) — global
// canonical relations go through Fill, which re-partitions.
func (r *RelStore) Insert(txn *Txn, t tuple.Tuple) error {
	return r.shardOfTuple(t).Insert(txn, t)
}

// Check refuses a tuple Insert could never store: its record larger
// than storage.MaxRecord, or a fixed atom whose key is over
// storage.MaxBTreeKey, with the errors Insert would return. It reads
// and writes no page, so a statement can check every tuple it adds
// before its first write; an Insert of a checked tuple fails only on
// I/O, a failed pool or a corrupt page.
func (r *Shard) Check(t tuple.Tuple) error {
	if err := storage.CheckRecord(len(encoding.EncodeTuple(t))); err != nil {
		return err
	}
	var key []byte
	for _, a := range t.Set(r.fixedAttr()).Atoms() {
		key = encoding.AppendOrderedAtom(key[:0], a)
		if err := storage.CheckBTreeKey(len(key)); err != nil {
			return err
		}
	}
	return nil
}

// Insert appends one canonical tuple to the shard's heap under txn and
// indexes it.
func (r *Shard) Insert(txn *Txn, t tuple.Tuple) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.insertLocked(txn, t)
}

func (r *Shard) insertLocked(txn *Txn, t tuple.Tuple) error {
	rid, err := r.heap.Insert(txn, encoding.EncodeTuple(t))
	if err != nil {
		return err
	}
	return r.indexTuple(txn, t, rid)
}

// Remove deletes the record holding the exact tuple t under txn.
func (r *RelStore) Remove(txn *Txn, t tuple.Tuple) error {
	return r.shardOfTuple(t).Remove(txn, t)
}

// Remove deletes the record holding the exact tuple t under txn.
func (r *Shard) Remove(txn *Txn, t tuple.Tuple) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.removeLocked(txn, t)
}

func (r *Shard) removeLocked(txn *Txn, t tuple.Tuple) error {
	rid, err := r.findLocked(t)
	if err != nil {
		return err
	}
	if err := r.heap.Delete(txn, rid); err != nil {
		return err
	}
	return r.unindexTuple(txn, t, rid)
}

// findLocked locates the record holding exactly t: it probes the tree
// for t's first fixed atom and reads the records listed there until one
// decodes to a tuple Equal to t, so identity is decided by the stored
// bytes. It reads k heap records, k being the number of stored tuples
// whose fixed component contains that atom; k is 1 whenever the relation
// is fixed on its last-nested attribute, which is what the default nest
// order is chosen for (paper Section 3.4), and for larger k it is the
// list the Section-4 maintainer walks for the same statement.
func (r *Shard) findLocked(t tuple.Tuple) (storage.RID, error) {
	rids, err := r.rangeD.Get(encoding.AppendOrderedAtom(nil, t.Set(r.fixedAttr()).At(0)))
	if err != nil {
		return storage.RID{}, err
	}
	for _, rid := range rids {
		stored, _, err := r.fetch(nil, rid, nil)
		if err != nil {
			return storage.RID{}, err
		}
		if stored.Equal(t) {
			return rid, nil
		}
	}
	return storage.RID{}, fmt.Errorf("store: tuple not found in %q: %s", r.def.Name, t)
}

// fetch decodes the record an index entry points at: in place on its
// pinned page (snap nil, r.mu held), or copied out of the snapshot
// into buf, which it returns for reuse. A dead slot is ErrCorrupt, as
// a record that does not decode is.
func (r *Shard) fetch(snap *storage.Snapshot, rid storage.RID, buf []byte) (t tuple.Tuple, _ []byte, err error) {
	var bad error
	decode := func(rec []byte) { t, _, bad = decodeRecord(r.def.Name, r.def.Schema.Degree(), rid, rec, nil) }
	if snap == nil {
		err = r.heap.View(rid, decode)
	} else if err = snap.View(rid.Page, func(p *storage.Page) error {
		rec, err := p.Get(int(rid.Slot))
		buf = append(buf[:0], rec...) // copied out: decoded without the pool's lock
		return err
	}); err == nil {
		decode(buf)
	}
	if errors.Is(err, storage.ErrBadSlot) {
		err = fmt.Errorf("%w: record %v of %q: %v", ErrCorrupt, rid, r.def.Name, err)
	}
	if err == nil {
		err = bad
	}
	return t, buf, err
}

// fetchRange appends to out the tuples with a fixed atom keyed in [lo,
// hi] (nil: unbounded), in key order of first hit, and returns the
// index pages read: as committed at snap, or (snap nil) the current
// pages under r.mu.
func (r *Shard) fetchRange(snap *storage.Snapshot, lo []byte, loIncl bool, hi []byte, hiIncl bool, out []tuple.Tuple) ([]tuple.Tuple, int, error) {
	if snap == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	var buf [32]storage.RID
	rids := buf[:0]
	pages, err := r.rangeD.ScanAt(snap, lo, loIncl, hi, hiIncl, func(_ []byte, rid storage.RID) bool {
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	rids = firstHits(rids)
	out = slices.Grow(out, len(rids))
	var recBuf [512]byte
	rec := recBuf[:0]
	for _, rid := range rids {
		var t tuple.Tuple
		if t, rec, err = r.fetch(snap, rid, rec); err != nil {
			return nil, 0, err
		}
		out = append(out, t)
	}
	return out, pages, nil
}

// firstHits keeps the first of each rid, in order: a tuple holding
// several fixed atoms in a range has an entry under each. A sorted copy
// finds repeats; with none, rids comes back as it is.
func firstHits(rids []storage.RID) []storage.RID {
	var buf [32]storage.RID
	sorted := append(buf[:0], rids...)
	slices.SortFunc(sorted, storage.RID.Compare)
	uniq := slices.Compact(sorted)
	if len(uniq) == len(rids) {
		return rids
	}
	taken := make([]bool, len(uniq))
	out := rids[:0]
	for _, rid := range rids {
		if i, _ := slices.BinarySearchFunc(uniq, rid, storage.RID.Compare); !taken[i] {
			taken[i] = true
			out = append(out, rid)
		}
	}
	return out
}

// ridTuple pairs a heap record with its decoded tuple for the oracle
// comparison.
type ridTuple struct {
	rid storage.RID
	t   tuple.Tuple
}

// Rewind re-attaches the shard's in-memory state to its pages after a
// transaction rollback discarded the uncommitted frames: the heap's
// insertion target is walked again from the chain's first page. The
// index keeps no state outside its pages. It performs no writes.
func (r *Shard) Rewind() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heap.Rewind()
}

// checkLocked is the oracle comparison: the index must answer exactly
// what a rebuilt-from-heap index would — every tuple probeable by each
// atom of its fixed component, entry counts equal (no extras), and
// every index page readable and checksum-valid.
func (r *Shard) checkLocked(rts []ridTuple) error {
	atoms := 0
	for _, rt := range rts {
		for _, a := range rt.t.Set(r.fixedAttr()).Atoms() {
			atoms++
			hits, err := r.rangeD.Get(encoding.AppendOrderedAtom(nil, a))
			if err != nil {
				return err
			}
			if !containsRID(hits, rt.rid) {
				return fmt.Errorf("%w: %q index lost atom of tuple at %v", ErrCorrupt, r.def.Name, rt.rid)
			}
		}
	}
	// structural pass: every index page (inner nodes and the leaf chain)
	// must be reachable and valid, so damage in never-probed pages
	// fail-stops too; its entry total catches extras
	_, n, err := r.rangeD.Pages()
	if err == nil && n != atoms {
		err = fmt.Errorf("%w: %q index holds %d entries, heap %d atoms", ErrCorrupt, r.def.Name, n, atoms)
	}
	return err
}

func containsRID(rids []storage.RID, rid storage.RID) bool {
	for _, r := range rids {
		if r == rid {
			return true
		}
	}
	return false
}

// VerifyIndex checks every shard's index against a fresh heap scan —
// the rebuild-on-open oracle. The durable index must never be more than
// a view of the heap; any divergence (missing or extra entries, torn or
// unreachable index pages) is returned as an error. It performs no
// writes.
func (r *RelStore) VerifyIndex() error {
	for _, sh := range r.shards {
		if err := sh.VerifyIndex(); err != nil {
			return err
		}
	}
	return nil
}

// VerifyIndex checks the shard's index against a fresh heap scan.
func (r *Shard) VerifyIndex() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rts []ridTuple
	if err := r.scanRawLocked(context.Background(), nil, func(rid storage.RID, t tuple.Tuple) bool {
		rts = append(rts, ridTuple{rid, t})
		return true
	}); err != nil {
		return err
	}
	return r.checkLocked(rts)
}

// pages returns every page the relation owns: all shards' heap chains
// and B+trees. The drop path hands them to the free list; the open-time
// sweep treats them as referenced.
func (r *RelStore) pages() ([]uint32, error) {
	var out []uint32
	for _, sh := range r.shards {
		p, err := sh.pages()
		if err != nil {
			return nil, err
		}
		out = append(out, p...)
	}
	return out, nil
}

func (r *Shard) pages() ([]uint32, error) {
	out, err := r.heap.Pages()
	if err != nil {
		return nil, err
	}
	ix, _, err := r.rangeD.Pages()
	if err != nil {
		return nil, err
	}
	return append(out, ix...), nil
}

// decodeRecord decodes the heap record rid of relation name, of
// degree deg. The tuple shares no bytes with rec, so rec's page may be
// unpinned afterwards. With tests, a record they reject is checked
// (encoding.MatchTuple) but not decoded, and ok is false; without, it
// is one DecodeTuple. A record that is not one tuple of degree deg is
// ErrCorrupt either way.
func decodeRecord(name string, deg int, rid storage.RID, rec []byte, tests []encoding.AtomTest) (t tuple.Tuple, ok bool, err error) {
	ok = true
	if len(tests) > 0 {
		ok, err = encoding.MatchTuple(rec, deg, tests)
	}
	if ok && err == nil {
		var n int
		if t, n, err = encoding.DecodeTuple(rec); err == nil && (n != len(rec) || t.Degree() != deg) {
			err = fmt.Errorf("%w: malformed tuple record", ErrCorrupt)
		}
	}
	if err != nil {
		return tuple.Tuple{}, false, fmt.Errorf("record %v of %q: %w", rid, name, err)
	}
	return t, ok, nil
}

// scanRecords runs walk, a heap walk that hands each live record to
// its callback, and passes fn every record that decodes and passes
// tests (decodeRecord), stopping when fn returns false. A cancelled
// walk is the caller's context speaking and a failed pool its own
// error, neither a malformed file.
func scanRecords(ctx context.Context, name string, deg int, tests []encoding.AtomTest,
	walk func(func(storage.RID, []byte) bool) error, fn func(storage.RID, tuple.Tuple) bool) error {
	var decodeErr error
	err := walk(func(rid storage.RID, rec []byte) bool {
		t, ok, err := decodeRecord(name, deg, rid, rec, tests)
		if err != nil {
			decodeErr = err
			return false
		}
		return !ok || fn(rid, t)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) || errors.Is(err, storage.ErrFailed) {
			return err
		}
		return wrapCorrupt(err, "scanning %q", name)
	}
	return decodeErr
}

// scanRaw decodes every live record in chain order that passes tests
// (nil: every record), reporting rids. r.mu is held for the whole walk
// so readers never observe page bytes mid-mutation from a concurrent
// write-through.
func (r *Shard) scanRaw(ctx context.Context, tests []encoding.AtomTest, fn func(rid storage.RID, t tuple.Tuple) bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scanRawLocked(ctx, tests, fn)
}

func (r *Shard) scanRawLocked(ctx context.Context, tests []encoding.AtomTest, fn func(rid storage.RID, t tuple.Tuple) bool) error {
	return scanRecords(ctx, r.def.Name, r.def.Schema.Degree(), tests, func(each func(storage.RID, []byte) bool) error {
		return r.heap.ScanCtx(ctx, each)
	}, fn)
}

// scanRaw walks every shard's heap in shard order.
func (r *RelStore) scanRaw(ctx context.Context, tests []encoding.AtomTest, fn func(rid storage.RID, t tuple.Tuple) bool) error {
	for _, sh := range r.shards {
		stopped := false
		if err := sh.scanRaw(ctx, tests, func(rid storage.RID, t tuple.Tuple) bool {
			if !fn(rid, t) {
				stopped = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Scan calls fn for every tuple stored in THIS shard in heap order —
// the engine materializes each shard's resident partition from it.
func (r *Shard) Scan(fn func(t tuple.Tuple) bool) error {
	return r.scanRaw(context.Background(), nil, func(_ storage.RID, t tuple.Tuple) bool { return fn(t) })
}

// LoadCtx materializes the stored tuples that pass tests (nil: all) by
// scanning the relation's heaps, with cancellation checked at
// page-fetch granularity: a cancelled context stops the heap walk
// before the next page is pulled through the buffer pool. For a
// K-sharded relation the result is the UNION of the shard partitions —
// each shard-canonical, together not necessarily globally canonical;
// the engine re-canonicalizes (see Def().Shards).
func (r *RelStore) LoadCtx(ctx context.Context, tests []encoding.AtomTest) (*core.Relation, error) {
	rel := core.NewRelation(r.def.Schema)
	if err := r.scanRaw(ctx, tests, func(_ storage.RID, t tuple.Tuple) bool {
		rel.Add(t)
		return true
	}); err != nil {
		return nil, err
	}
	return rel, nil
}

// LookupFixed returns every stored tuple whose fixed (determinant)
// component contains atom a — a B+tree equality probe on the owning
// shard instead of a heap scan. The probe key is AppendOrderedAtom's,
// so it finds exactly the atoms value.Compare calls equal to a.
func (r *RelStore) LookupFixed(a value.Atom) ([]tuple.Tuple, error) {
	return r.lookupFixed(nil, a)
}

// lookupFixed is LookupFixed as committed at snap (nil: the current
// state, under the shard's lock).
func (r *RelStore) lookupFixed(snap *storage.Snapshot, a value.Atom) ([]tuple.Tuple, error) {
	key := encoding.AppendOrderedAtom(nil, a)
	ts, _, err := r.shards[ShardOfAtom(a, len(r.shards))].fetchRange(snap, key, true, key, true, nil)
	return ts, err
}

// RangeBound is one end of a determinant-atom range predicate, as
// handed to ScanFixedRange. nil stands for "unbounded".
type RangeBound struct {
	Atom value.Atom
	Incl bool
}

// ScanFixedRange returns every stored tuple with at least one fixed
// (determinant) atom in the given range, once, via the shards'
// B+trees instead of heap scans. Shards partition by HASH of the atom,
// so a range spans all of them: the result unions every shard's scan.
// The page count is the total index pages read (descent + leaf chain),
// the currency of the bench gate. The caller re-applies its full
// predicate: the scan answers "some atom in range", which is a
// superset of any tuple-level predicate over the same component.
func (r *RelStore) ScanFixedRange(lo, hi *RangeBound) ([]tuple.Tuple, int, error) {
	return r.scanFixedRange(nil, lo, hi)
}

// scanFixedRange is ScanFixedRange as committed at snap (nil: the
// current state, under each shard's lock in turn).
func (r *RelStore) scanFixedRange(snap *storage.Snapshot, lo, hi *RangeBound) ([]tuple.Tuple, int, error) {
	var loKey, hiKey []byte
	loIncl, hiIncl := true, true
	if lo != nil {
		loKey, loIncl = encoding.AppendOrderedAtom(nil, lo.Atom), lo.Incl
	}
	if hi != nil {
		hiKey, hiIncl = encoding.AppendOrderedAtom(nil, hi.Atom), hi.Incl
	}
	var out []tuple.Tuple
	pages := 0
	for _, sh := range r.shards {
		var n int
		var err error
		if out, n, err = sh.fetchRange(snap, loKey, loIncl, hiKey, hiIncl, out); err != nil {
			return nil, 0, err
		}
		pages += n
	}
	return out, pages, nil
}

// SetRangeIndexMaxEntries lowers the B+tree node fan-out (testing
// knob: small trees split early, so split/crash tests stay small).
func (r *Shard) SetRangeIndexMaxEntries(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rangeD.SetMaxNodeEntries(n)
}

// IndexPageCounts breaks a relation's durable index footprint down by
// page role, making growth that never shrinks (the B+tree inner
// skeleton) observable instead of silent.
type IndexPageCounts struct {
	// HashDir / HashBuckets always read 0: no shard has a hash index.
	// They are declared only for bench/layers.go ("storage.hash_pages")
	// and go with storage/diskindex.go (ROADMAP, smaller items).
	HashDir     int `json:"hash_dir"`
	HashBuckets int `json:"hash_buckets"`
	// BTreeInner counts the tree's meta + inner pages; BTreeLeaf its
	// leaf pages.
	BTreeInner int `json:"btree_inner"`
	BTreeLeaf  int `json:"btree_leaf"`
}

// IndexPageCounts sums the per-structure index page counts across
// shards.
func (r *RelStore) IndexPageCounts() (IndexPageCounts, error) {
	var total IndexPageCounts
	for _, sh := range r.shards {
		c, err := sh.IndexPageCounts()
		if err != nil {
			return IndexPageCounts{}, err
		}
		total.BTreeInner += c.BTreeInner
		total.BTreeLeaf += c.BTreeLeaf
	}
	return total, nil
}

// IndexPageCounts reports this shard's index footprint by structure.
func (r *Shard) IndexPageCounts() (IndexPageCounts, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inner, leaf, err := r.rangeD.PageCounts()
	if err != nil {
		return IndexPageCounts{}, err
	}
	return IndexPageCounts{BTreeInner: inner, BTreeLeaf: leaf}, nil
}

// Fill inserts rel's content into empty shards under txn, partitioning
// by determinant atom and re-canonicalizing each partition for sharded
// layouts. The paged Save path uses it.
func (r *RelStore) Fill(txn *Txn, rel *core.Relation) error {
	if len(r.shards) == 1 {
		sh := r.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for i := 0; i < rel.Len(); i++ {
			if err := sh.insertLocked(txn, rel.Tuple(i)); err != nil {
				return err
			}
		}
		return nil
	}
	parts := PartitionCanonical(rel, r.def.Order, len(r.shards))
	for ord, part := range parts {
		sh := r.shards[ord]
		sh.mu.Lock()
		for i := 0; i < part.Len(); i++ {
			if err := sh.insertLocked(txn, part.Tuple(i)); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// PartitionCanonical splits a relation into K shard-canonical
// relations: its expansion is routed flat-by-flat via ShardOfAtom of
// the determinant (order[len-1]) and each partition is re-canonicalized
// with the Section-4 nest order. The union of the partitions' expansions
// equals the input's expansion.
func PartitionCanonical(rel *core.Relation, order []int, k int) []*core.Relation {
	fixedAt := order[len(order)-1]
	buckets := make([]*core.Relation, k)
	for i := range buckets {
		buckets[i] = core.NewRelation(rel.Schema())
	}
	for _, f := range rel.Expand() {
		buckets[ShardOfAtom(f[fixedAt], k)].Add(tuple.FromFlat(f))
	}
	out := make([]*core.Relation, k)
	for i, b := range buckets {
		canon, _ := b.CanonicalFromFlats(order)
		out[i] = canon
	}
	return out
}
