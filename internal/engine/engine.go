// Package engine is the database layer: a catalog of named NFRs, each
// declared with a schema, optional FDs/MVDs, and a nest order, kept
// permanently in canonical form V_P by the Section-4 update algorithms.
//
// The public surface is transaction-centric (see docs/api.md): Begin
// returns a Tx whose statements span one storage transaction and
// group-commit together; the Database-level statement methods (Insert,
// Delete, Create, Drop, ReadRelation) are thin autocommit wrappers
// over a one-shot Tx.
//
// There is one engine: every relation is a heap chain plus a B+tree in
// a single paged file behind a WAL. Open keeps that file on the
// operating system's file system; New keeps it in memory.
//
// The nest order defaults to SuggestOrder, which encodes Section 3.4's
// guidance: nest the dependent (right-side) attributes first so the
// canonical form ends up fixed on the determinant (left-side)
// attributes — the NFR analogue of a key.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/update"
)

// RelationDef declares a relation: its schema, dependencies, and the
// nest order of its canonical form.
type RelationDef struct {
	Name   string
	Schema *schema.Schema
	// Order is the nest order (Order[0] nested first). When nil,
	// SuggestOrder picks one from the dependencies.
	Order schema.Permutation
	FDs   []dep.FD
	MVDs  []dep.MVD
	// Shards is the number of heap chains the relation's canonical form
	// is partitioned across, keyed by determinant atom
	// (store.ShardOfAtom). 0 and 1 both mean the classic single-chain
	// layout. Writers on different shards of one relation run and commit
	// concurrently; reads merge the shard partitions back into the
	// global canonical form (see docs/concurrency.md).
	Shards int
}

// SuggestOrder derives a nest order from the declared dependencies:
// attributes that appear only on right sides are nested first, left
// side (determinant) attributes last, preserving schema order within
// each class. With no dependencies it returns the identity.
func SuggestOrder(s *schema.Schema, fds []dep.FD, mvds []dep.MVD) schema.Permutation {
	lhs := schema.NewAttrSet()
	for _, f := range fds {
		lhs = lhs.Union(f.Lhs)
	}
	for _, m := range mvds {
		lhs = lhs.Union(m.Lhs)
	}
	var first, last []int
	for i := 0; i < s.Degree(); i++ {
		if lhs.Has(s.Attr(i).Name) {
			last = append(last, i)
		} else {
			first = append(first, i)
		}
	}
	return schema.Permutation(append(first, last...))
}

// Rel is one live relation: its definition plus one relShard per heap
// chain — each pairing a shard of the paged store with the maintainer
// of that shard's canonical partition and the latch serializing
// statements on it. A classic relation has exactly one shard.
type Rel struct {
	def RelationDef
	rs  *store.RelStore

	// shards holds rs.ShardCount() entries, at least one.
	shards []*relShard

	// dropped is written while the dropping transaction holds EVERY
	// shard latch, and read under any one of them, so a statement that
	// was waiting while the relation was dropped fails cleanly instead
	// of writing into freed pages.
	dropped bool
}

// relShard is one independently-latched slice of a relation: the
// Section-4 maintainer of one shard partition, the store shard it
// writes through to (the relShard is the maintainer's update.Sink), and
// the write pipeline batching autocommit statements on it. Statements
// on different shards of one relation dirty disjoint pages and commit
// concurrently (their WAL batches merged by the store's group-commit
// scheduler); reads latch or snapshot ALL shards and re-canonicalize
// the union.
type relShard struct {
	r   *Rel
	ord int
	ss  *store.Shard

	// The shard's canonical-form maintainer is materialized LAZILY:
	// engine.Open attaches relations without scanning a single heap
	// page, and the one O(shard heap) materializing scan happens on the
	// first statement that needs the resident form (a write, Stats,
	// ValidateDeps — snapshot reads never do). maint is the published
	// maintainer (nil until then); maintMu serializes the one-time
	// materialization. Freshly created relations publish their
	// maintainers eagerly.
	maintMu sync.Mutex
	maint   atomic.Pointer[update.Maintainer]

	// latch serializes statements on THIS shard (the shard maintainer
	// and its write-through are single-writer). A transaction holds it
	// from its first statement touching the shard until it commits or
	// rolls back. Deadlocks are avoided with wait-die (see latch).
	latch *latch

	// stx is the storage transaction of the Tx holding the latch (nil
	// while none has attached, see Tx.attachShard) and sinkErr the first
	// error of a write-through under it. Both are guarded by the latch,
	// read at the statement's end (Tx.syncAfterWrite, Tx.applyOps) and
	// cleared by Tx.finish: the Tx alone owns the transaction's boundary.
	stx     *store.Txn
	sinkErr error

	// pipe batches concurrent autocommit writes on this shard into
	// single-fsync group applications (see pipeline).
	pipe pipeline
}

// newRel assembles a Rel over rs, one relShard per store shard.
func newRel(def RelationDef, rs *store.RelStore) *Rel {
	r := &Rel{def: def, rs: rs, shards: make([]*relShard, rs.ShardCount())}
	for i := range r.shards {
		r.shards[i] = &relShard{r: r, ord: i, ss: rs.Shard(i), latch: newLatch()}
	}
	return r
}

// TupleAdded and TupleRemoved implement update.Sink: each tuple the
// Section-4 algorithms compose or decompose is written through to the
// store shard under the attached transaction, so one statement's
// tuples (and one Tx's statements) reach the log as one atomic batch.
func (sh *relShard) TupleAdded(t tuple.Tuple) {
	if sh.writable() {
		sh.sinkErr = sh.ss.Insert(sh.stx, t)
	}
}

func (sh *relShard) TupleRemoved(t tuple.Tuple) {
	if sh.writable() {
		sh.sinkErr = sh.ss.Remove(sh.stx, t)
	}
}

// writable gates a write-through: nothing is written after the first
// error, and with no transaction attached the write is refused, never
// made outside one.
func (sh *relShard) writable() bool {
	if sh.sinkErr == nil && sh.stx == nil {
		sh.sinkErr = fmt.Errorf("engine: write-through to %q outside a transaction", sh.r.def.Name)
	}
	return sh.sinkErr == nil
}

// Def returns the relation's definition.
func (r *Rel) Def() RelationDef { return r.def }

// shardFor routes a flat tuple to the shard owning it: the hash of its
// determinant atom (the attribute the canonical form is fixed on). A
// malformed flat — wrong degree — routes to shard 0, where the
// maintainer's own validation rejects it.
func (r *Rel) shardFor(f tuple.Flat) *relShard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	fixedAt := r.def.Order[len(r.def.Order)-1]
	if fixedAt >= len(f) {
		return r.shards[0]
	}
	return r.shards[store.ShardOfAtom(f[fixedAt], len(r.shards))]
}

// maintainer returns the shard's canonical-form maintainer,
// materializing it on first use: one shard-heap scan (refusing
// duplicate records — the fail-stop the store's index-attach open no
// longer provides), update.Adopt of what it read, and the write-through
// sink hookup. The engine writes a heap only through its maintainer, so
// a heap already holds V_P and Adopt checks it rather than rebuilding
// it. A stored form that drifted from the partition's canonical form
// (it never does through this engine) fails that check and is
// resynchronized under txn, the caller's statement transaction. With a
// nil txn (read-only paths) the canonical form of a drifted heap is
// returned but NOT published: a published maintainer writes through to
// a heap it must mirror, so the repair is left to the first write.
func (sh *relShard) maintainer(txn *store.Txn) (*update.Maintainer, error) {
	if m := sh.maint.Load(); m != nil {
		return m, nil
	}
	sh.maintMu.Lock()
	defer sh.maintMu.Unlock()
	if m := sh.maint.Load(); m != nil {
		return m, nil
	}
	def := sh.r.def
	rel := core.NewRelation(def.Schema)
	var dup error
	if err := sh.ss.Scan(func(t tuple.Tuple) bool {
		if !rel.Add(t) {
			dup = fmt.Errorf("%w: duplicate record in %q", store.ErrCorrupt, def.Name)
			return false
		}
		return true
	}); err != nil {
		return nil, err
	}
	if dup != nil {
		return nil, dup
	}
	m, err := update.Adopt(rel, def.Order)
	if errors.Is(err, update.ErrNotCanonical) {
		canon, _ := rel.CanonicalFromFlats(def.Order)
		if m, err = update.Adopt(canon, def.Order); err != nil {
			return nil, err
		}
		if txn == nil {
			return m, nil // a read: the repair is left to the first write
		}
		// the canonical form of the shard's flats keeps every fixed atom
		// routing to this shard, so the shard-local Replace is sound
		if err := sh.ss.Replace(txn, canon); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	m.SetSink(sh)
	sh.maint.Store(m)
	return m, nil
}

// canonical materializes every shard and returns the GLOBAL canonical
// relation plus the summed maintenance stats. For a single-shard
// relation it is the resident form itself (not a copy); a K-sharded
// relation re-canonicalizes the union of the shard partitions. Callers
// must hold every shard latch (or otherwise exclude writers).
func (r *Rel) canonical(txn *store.Txn) (*core.Relation, update.Stats, error) {
	if len(r.shards) == 1 {
		m, err := r.shards[0].maintainer(txn)
		if err != nil {
			return nil, update.Stats{}, err
		}
		return m.Relation(), m.Stats(), nil
	}
	union := core.NewRelation(r.def.Schema)
	var st update.Stats
	for _, sh := range r.shards {
		m, err := sh.maintainer(txn)
		if err != nil {
			return nil, update.Stats{}, err
		}
		rel := m.Relation()
		for i := 0; i < rel.Len(); i++ {
			union.Add(rel.Tuple(i))
		}
		st.Add(m.Stats())
	}
	canon, _ := union.CanonicalFromFlats(r.def.Order)
	return canon, st, nil
}

// Relation returns the current canonical NFR, lazily materialized (not
// a copy for single-shard relations; treat as read-only — ReadRelation
// returns an isolated snapshot). It returns nil when materialization
// fails (a corrupt heap); error-aware callers use ReadRelation or Stats.
func (r *Rel) Relation() *core.Relation {
	rel, _, err := r.canonical(nil)
	if err != nil {
		return nil
	}
	return rel
}

// Stats returns the maintainers' accumulated operation counts, summed
// across shards (zero when the canonical form was never materialized
// or fails to).
func (r *Rel) Stats() update.Stats {
	var st update.Stats
	for _, sh := range r.shards {
		if m := sh.maint.Load(); m != nil {
			st.Add(m.Stats())
		}
	}
	return st
}

// ResetStats zeroes the operation counters.
func (r *Rel) ResetStats() {
	for _, sh := range r.shards {
		if m := sh.maint.Load(); m != nil {
			m.ResetStats()
		}
	}
}

// Database is a catalog of live relations. Methods are safe for
// concurrent use; each relation serializes its statements behind a
// per-relation latch held for the owning transaction's lifetime, and
// transactions on different relations commit concurrently as separate
// storage transactions whose WAL batches the store merges into shared
// fsyncs (there is no global statement lock).
//
// Every relation is realized as heap chains in a single paged file,
// and each canonical-form mutation is written through as it happens.
// The file is on the operating system's file system (Open) or in
// memory (New).
type Database struct {
	mu   sync.RWMutex
	rels map[string]*Rel
	st   *store.Store
	path string // the paged file's path; "" for an in-memory database

	readOnly bool
	closed   atomic.Bool

	// transaction machinery: the DDL latch serializing catalog
	// mutations, and the open set Close rolls back. Transaction ids
	// (wait-die ages) come from the process-wide txIDSeq, not a
	// per-Database counter.
	ddl     *latch
	txMu    sync.Mutex
	openTxs map[*Tx]struct{}
}

// txIDSeq is the process-wide transaction id source. Wait-die compares
// transaction ids as ages, so ids must be unique and monotonic across
// every transaction that could ever contend — with a network server in
// front, that means across all sessions and all Database instances in
// the process, not per Database: two handles each minting ids from
// their own counter would hand out the same age twice, and wait-die's
// no-cycle argument (any wait chain has strictly decreasing ages)
// silently loses its footing. One atomic for the whole process keeps
// the ordering total. See TestTxIDsProcessWide.
var txIDSeq atomic.Uint64

// nextTxID mints a fresh process-wide transaction id (never 0 — 0
// means "assign one" in begin).
func nextTxID() uint64 { return txIDSeq.Add(1) }

// New creates an empty database that lives in memory: the engine Open
// returns, over a paged file and WAL held in a storage.MemFS of its
// own. It has no path, so Save writes a snapshot to any path given.
func New() *Database {
	fsys := storage.NewMemFS()
	db, err := Open("mem", WithFileSystem(fsys.Open, fsys.Remove))
	if err != nil {
		// initializing an empty in-memory file has nothing to fail on
		panic(fmt.Sprintf("engine: in-memory database: %v", err))
	}
	db.path = ""
	return db
}

// Open opens (or creates) a disk-backed database in the single paged
// file at path. Options tune the buffer pool, checkpoint policy, and
// access mode:
//
//	db, err := engine.Open(path, engine.WithPoolPages(256))
//
// The store attaches each relation to its durable B+trees without
// scanning, and the engine attaches without materializing: the whole
// open is O(catalog + one meta page per shard) page reads, never a heap
// scan. Each relation's canonical form materializes lazily on the
// first statement that needs it resident (see Rel.maintainer);
// snapshot reads (ReadRelation) never do.
func Open(path string, opts ...Option) (*Database, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	// a read-only open must not perform the (optional) orphan sweep —
	// only crash recovery may write
	cfg.store.NoSweep = cfg.store.NoSweep || cfg.readOnly
	st, err := store.Open(path, cfg.store)
	if err != nil {
		return nil, err
	}
	db := &Database{
		rels:     make(map[string]*Rel),
		st:       st,
		path:     path,
		readOnly: cfg.readOnly,
		ddl:      newLatch(),
		openTxs:  make(map[*Tx]struct{}),
	}
	db.attachStored()
	return db, nil
}

// attachStored registers every relation of the store's catalog, without
// materializing any (Rel.maintainer does that lazily).
func (db *Database) attachStored() {
	for _, name := range db.st.Relations() {
		rs, _ := db.st.Rel(name)
		sdef := rs.Def()
		def := RelationDef{Name: sdef.Name, Schema: sdef.Schema, Order: sdef.Order, FDs: sdef.FDs, MVDs: sdef.MVDs, Shards: rs.ShardCount()}
		db.rels[def.Name] = newRel(def, rs)
	}
}

// ReadOnly reports whether the database rejects mutations (opened with
// WithReadOnly).
func (db *Database) ReadOnly() bool { return db.readOnly }

func (db *Database) isClosed() bool { return db.closed.Load() }

// Flush writes all dirty buffered pages to the paged file (a
// checkpoint). It fails with ErrReadOnly on a read-only database.
func (db *Database) Flush() error {
	if db.isClosed() {
		return fmt.Errorf("engine: flush: %w", ErrClosed)
	}
	if db.readOnly {
		return fmt.Errorf("engine: flush: %w", ErrReadOnly)
	}
	return db.st.Flush()
}

// Close rolls back every still-open transaction (whose handles then
// return ErrTxDone), checkpoints, and closes the paged file. Close is
// idempotent: the second and later calls return nil. A read-only
// database discards instead of checkpointing.
func (db *Database) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Wake statements blocked on latches so their transactions become
	// rollback-able instead of wedging Close behind a wait that can
	// never end.
	db.mu.RLock()
	for _, r := range db.rels {
		for _, sh := range r.shards {
			sh.latch.interrupt()
		}
	}
	db.mu.RUnlock()
	db.ddl.interrupt()
	db.txMu.Lock()
	open := make([]*Tx, 0, len(db.openTxs))
	for tx := range db.openTxs {
		open = append(open, tx)
	}
	db.txMu.Unlock()
	for _, tx := range open {
		// ErrTxDone means the owner finished it first; any other failure
		// still closes the files below — nothing uncommitted is on disk
		_ = tx.Rollback()
	}
	if db.readOnly {
		return db.st.Discard()
	}
	return db.st.Close()
}

// PoolStats reports the buffer pool's (hits, misses, evictions); ok is
// always true. The counters cover traffic since Open returned —
// open-time recovery and index-rebuild I/O is bucketed separately in
// OpenIOStats.
func (db *Database) PoolStats() (hits, misses, evictions int, ok bool) {
	hits, misses, evictions = db.st.PoolStats()
	return hits, misses, evictions, true
}

// AllPoolStats reports the full buffer-pool counter set (including
// overflow and checksum-repair counts, which the three-int PoolStats
// omits); ok is always true. The server's STATS frame serves this
// snapshot.
func (db *Database) AllPoolStats() (st storage.PoolStats, ok bool) {
	return db.st.AllPoolStats(), true
}

// OpenIOStats reports the buffer-pool counters consumed by store.Open
// itself (WAL replay, catalog load, index attach); ok is always true.
// On a clean file the bucket is bounded by catalog + index metadata,
// never the heap size.
func (db *Database) OpenIOStats() (st storage.PoolStats, ok bool) {
	return db.st.OpenIOStats(), true
}

// VerifyIndexes checks every relation's durable indexes against a
// fresh heap scan — the rebuild oracle (see store.VerifyIndexes). It
// performs no writes.
func (db *Database) VerifyIndexes() error {
	if db.isClosed() {
		return fmt.Errorf("engine: verify indexes: %w", ErrClosed)
	}
	return db.st.VerifyIndexes()
}

// WALStats reports write-ahead-log activity (batches, page images,
// fsyncs, and what open-time recovery replayed); ok is always true.
func (db *Database) WALStats() (st storage.WALStats, ok bool) {
	return db.st.WALStats(), true
}

// RecoveryReport is store.RecoveryReport; ok is always true.
func (db *Database) RecoveryReport() (r store.RecoveryReport, ok bool) {
	return db.st.RecoveryReport(), true
}

// autocommit runs one statement as a one-shot transaction: begin,
// apply, commit. A statement refused by wait-die deadlock avoidance
// (ErrTxConflict — only the multi-latch paths like Drop can hit it) is
// retried under its ORIGINAL transaction id, so the retry ages toward
// the front of the wait-die order instead of staying forever-youngest
// (starvation freedom); between attempts the loop first rolls back —
// releasing every latch — and then PARKS on the refused latch until
// its holder finishes, so a conflict against a long-lived transaction
// costs a blocked goroutine, not a busy spin.
func (db *Database) autocommit(fn func(tx *Tx) error) error {
	var id uint64
	for {
		tx, err := db.begin(context.Background(), id)
		if err != nil {
			return err
		}
		id = tx.id
		opErr := fn(tx)
		if opErr != nil && errors.Is(opErr, ErrTxConflict) {
			tx.Rollback()
			var ce *conflictError
			if errors.As(opErr, &ce) {
				ce.l.awaitFree(db)
			}
			continue
		}
		// Commit even after a failed statement: the statement's repair
		// (syncAfterWrite) left the transaction consistent at the
		// pre-statement state, and committing it is what makes the
		// repair durable as one atomic batch. A no-op transaction's
		// commit costs nothing.
		if cerr := tx.Commit(); cerr != nil && opErr == nil {
			opErr = cerr
		}
		return opErr
	}
}

// ReadRelation returns a snapshot of the named relation for query
// evaluation. It pins an MVCC snapshot — the last published commit —
// and materializes the relation from it WITHOUT taking the relation's
// statement latch: an open transaction holding the latch (even one
// stalled mid-statement for seconds) never blocks the read, and the
// result is always a whole-transaction boundary (see docs/mvcc.md).
// The caller owns the copy. ctx cancels the heap walk at page
// granularity (nil = background).
func (db *Database) ReadRelation(ctx context.Context, name string) (*core.Relation, error) {
	if db.isClosed() {
		return nil, fmt.Errorf("engine: read: %w", ErrClosed)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	snap := db.st.PinSnapshot()
	defer snap.Close()
	if !snap.Has(name) {
		return nil, errNotFound(name)
	}
	rel, err := snap.LoadCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	// a K-sharded heap stores K shard-canonical partitions; merge them
	// back into the global canonical form
	if def, _ := snap.Def(name); def.Shards > 1 {
		rel, _ = rel.CanonicalFromFlats(def.Order)
	}
	return rel, nil
}

// LatchWaits reports how many statement-latch acquisitions blocked on a
// concurrent statement, summed over all relations and their shards.
func (db *Database) LatchWaits() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, r := range db.rels {
		for _, sh := range r.shards {
			n += sh.latch.waits.Load()
		}
	}
	return n
}

// RelPipelineStats reports one relation's write-pipeline and shard
// contention counters (see Database.PipelineStats).
type RelPipelineStats struct {
	Shards     int   // heap chains the relation is partitioned across
	Batches    int64 // pipeline batches applied (each ≤ 1 fsync)
	Ops        int64 // autocommit statements that rode a pipeline batch
	MaxBatch   int64 // largest batch applied on any shard
	QueuePeak  int64 // high-water pipeline queue depth on any shard
	LatchWaits int64 // contended shard-latch acquisitions
}

// PipelineStats reports, per relation, how the write pipeline batched
// concurrent autocommit statements and how contended the shard latches
// were — the \stats surface of the same-relation scaling bench.
func (db *Database) PipelineStats() map[string]RelPipelineStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]RelPipelineStats, len(db.rels))
	for name, r := range db.rels {
		st := RelPipelineStats{Shards: len(r.shards)}
		for _, sh := range r.shards {
			st.Batches += sh.pipe.batches.Load()
			st.Ops += sh.pipe.ops.Load()
			if m := sh.pipe.maxBatch.Load(); m > st.MaxBatch {
				st.MaxBatch = m
			}
			if p := sh.pipe.peak.Load(); p > st.QueuePeak {
				st.QueuePeak = p
			}
			st.LatchWaits += sh.latch.waits.Load()
		}
		out[name] = st
	}
	return out
}

// normalizeDef validates a relation definition and fills in the
// suggested nest order.
func normalizeDef(def RelationDef) (RelationDef, error) {
	if def.Name == "" {
		return def, fmt.Errorf("engine: relation name empty")
	}
	if def.Schema == nil || def.Schema.Degree() == 0 {
		return def, fmt.Errorf("engine: relation %q needs a non-empty schema", def.Name)
	}
	for _, f := range def.FDs {
		for _, a := range append(f.Lhs.Sorted(), f.Rhs.Sorted()...) {
			if !def.Schema.Has(a) {
				return def, fmt.Errorf("engine: FD %v references unknown attribute %q", f, a)
			}
		}
	}
	for _, m := range def.MVDs {
		for _, a := range append(m.Lhs.Sorted(), m.Rhs.Sorted()...) {
			if !def.Schema.Has(a) {
				return def, fmt.Errorf("engine: MVD %v references unknown attribute %q", m, a)
			}
		}
	}
	if def.Order == nil {
		def.Order = SuggestOrder(def.Schema, def.FDs, def.MVDs)
	}
	if !def.Order.Valid(def.Schema) {
		return def, fmt.Errorf("engine: invalid nest order %v for %q", def.Order, def.Name)
	}
	// mirror the store's catalog bound so a bad shard count fails here,
	// before any catalog write
	if def.Shards < 0 || def.Shards > 64 {
		return def, fmt.Errorf("engine: relation %q shard count %d out of range [0,64]", def.Name, def.Shards)
	}
	return def, nil
}

// Create registers a new empty relation (autocommit).
func (db *Database) Create(def RelationDef) error {
	return db.autocommit(func(tx *Tx) error { return tx.Create(def) })
}

// Drop removes a relation (autocommit). The catalog record is deleted and the heap chain's pages go to the free list, all
// committed as one WAL batch. The relation's statement latch is taken
// for the duration, so a statement in flight on the same relation
// finishes first and a statement that was waiting observes the drop
// instead of writing into freed pages.
func (db *Database) Drop(name string) error {
	return db.autocommit(func(tx *Tx) error { return tx.Drop(name) })
}

// Rel looks up a live relation.
func (db *Database) Rel(name string) (*Rel, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name]
	if !ok {
		return nil, errNotFound(name)
	}
	return r, nil
}

// Def returns the named relation's definition.
func (db *Database) Def(name string) (RelationDef, error) {
	r, err := db.Rel(name)
	if err != nil {
		return RelationDef{}, err
	}
	return r.def, nil
}

// Names returns the catalog's relation names, sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert adds a flat tuple to the named relation, maintaining the
// canonical form. It is an autocommit statement that rides the
// relation's write pipeline: concurrent Inserts and Deletes on one
// shard batch into a single group-applied transaction (one fsync for
// the whole batch — see pipeline). It reports whether the relation
// changed.
func (db *Database) Insert(name string, f tuple.Flat) (bool, error) {
	return db.writePipelined(name, f, true)
}

// Delete removes a flat tuple from the named relation (autocommit,
// pipelined like Insert).
func (db *Database) Delete(name string, f tuple.Flat) (bool, error) {
	return db.writePipelined(name, f, false)
}

// InsertMany bulk-inserts flat tuples, each as its own autocommit
// statement, returning how many changed the relation. Use Tx.InsertMany
// to batch them under one commit instead.
func (db *Database) InsertMany(name string, fs []tuple.Flat) (int, error) {
	n := 0
	for _, f := range fs {
		ch, err := db.Insert(name, f)
		if err != nil {
			return n, err
		}
		if ch {
			n++
		}
	}
	return n, nil
}

func (db *Database) typeCheck(r *Rel, f tuple.Flat) error {
	s := r.def.Schema
	if len(f) != s.Degree() {
		return fmt.Errorf("engine: tuple degree %d != schema degree %d: %w", len(f), s.Degree(), ErrTypeMismatch)
	}
	for i, a := range f {
		want := s.Attr(i).Kind
		if want != 0 && a.K != want {
			return fmt.Errorf("engine: attribute %s expects %v, got %v: %w", s.Attr(i).Name, want, a.K, ErrTypeMismatch)
		}
	}
	return nil
}

// Violation describes a dependency violated by the current data.
type Violation struct {
	Relation string
	Dep      string // String() of the FD or MVD
}

// ValidateDeps checks every declared FD and MVD of the named relation
// against its current expansion R*, under the relation's latch (so a
// concurrent transaction's in-flight maintainer mutations are never
// observed mid-statement).
func (db *Database) ValidateDeps(name string) ([]Violation, error) {
	var out []Violation
	err := db.autocommit(func(tx *Tx) error {
		var err error
		out, err = tx.ValidateDeps(name)
		return err
	})
	return out, err
}

// validateOf checks r's declared dependencies against the materialized
// canonical form rel; the caller holds every shard latch.
func validateOf(name string, r *Rel, rel *core.Relation) []Violation {
	flats := rel.Expand()
	var out []Violation
	for _, f := range r.def.FDs {
		if !dep.SatisfiesFD(r.def.Schema, flats, f) {
			out = append(out, Violation{Relation: name, Dep: f.String()})
		}
	}
	for _, m := range r.def.MVDs {
		if !dep.SatisfiesMVD(r.def.Schema, flats, m) {
			out = append(out, Violation{Relation: name, Dep: m.String()})
		}
	}
	return out
}

// RelStats summarizes a relation's physical and logical size — the
// quantities behind the paper's tuple-count-reduction argument.
type RelStats struct {
	Name        string
	NFRTuples   int
	FlatTuples  int
	Compression float64 // FlatTuples / NFRTuples (≥ 1)
	FixedOn     []string
	Ops         update.Stats
	IndexPages  *store.IndexPageCounts // the relation's B+tree pages
}

// Stats reports size and maintenance statistics for the named
// relation, under the relation's latch (committed-boundary reads).
func (db *Database) Stats(name string) (RelStats, error) {
	var st RelStats
	err := db.autocommit(func(tx *Tx) error {
		var err error
		st, err = tx.Stats(name)
		return err
	})
	return st, err
}

// statsOf computes the statistics of the materialized canonical form
// rel; the caller holds every shard latch. ops is the summed
// maintenance counters of the relation's shard maintainers.
func statsOf(name string, rel *core.Relation, ops update.Stats) RelStats {
	st := RelStats{
		Name:       name,
		NFRTuples:  rel.Len(),
		FlatTuples: rel.ExpansionSize(),
		FixedOn:    rel.FixedDomains(),
		Ops:        ops,
	}
	if st.NFRTuples > 0 {
		st.Compression = float64(st.FlatTuples) / float64(st.NFRTuples)
	}
	return st
}
