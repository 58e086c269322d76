// Package store maps catalog relations onto the paged storage
// substrate: each relation's canonical NFR tuples live in a heap file
// of encoded records behind a shared buffer pool, with one durable
// B+tree per shard in the same file — fixed (determinant) atom → RID —
// so point and range reads and the delete path's victim search probe
// the tree instead of scanning, and reopening attaches to the persisted
// tree instead of rebuilding it (open-phase I/O is O(catalog + one meta
// page per shard), not O(heap); see storage.BTree). The whole database
// is one paged file plus a write-ahead-log sidecar (<path>.wal):
//
//	page 1    catalog heap chain — record 0 is the header
//	          (magic "NFRS" + format version + database id), every
//	          further live record is one relation definition + the
//	          heap root and B+tree root of each of its shards
//	page 2    free-list heap chain — 4-byte page ids reclaimable
//	          from dropped relations (see freelist.go)
//	page *    per-relation heap chains of encoding.EncodeTuple
//	          records, and B+tree meta, inner and leaf pages
//
// The store is the durability half of the engine's "realization view"
// (paper Section 5): the engine keeps the canonical form in memory for
// the Section-4 update algorithms and writes every tuple it composes or
// decomposes through as Shard.Insert(txn, t) / Remove(txn, t), under
// the storage transaction its Tx began; the store keeps no statement
// state and returns each write's error. Mutations are transactional:
// Begin hands out a Txn, every write is attributed to one, and
// Commit(txn) groups exactly that transaction's dirty pages into one
// WAL batch — concurrently committing transactions are merged into a
// single log write and fsync by the buffer pool's group-commit
// scheduler, so independent statements commit in parallel. Opening a
// crashed file replays committed batches and discards torn tails. See
// docs/storage.md for the layer diagram and docs/recovery.md for the
// recovery protocol.
package store

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"

	"repro/internal/storage"
)

// Magic identifies a paged NFR database file (header record of the
// catalog heap).
var Magic = [4]byte{'N', 'F', 'R', 'S'}

// FormatVersion is the one paged file format version this build reads
// and writes: checksummed pages with page LSNs, a free-list page, a WAL
// sidecar, a 13-byte header record carrying the database id, a
// relation record that names the heap and B+tree roots of every shard,
// and a B+tree meta record of root, height and first leaf, with no
// entry count.
// A file with any other version byte, a header of another length, or a
// relation record missing a root is refused with ErrCorrupt (see
// loadCatalog and decodeCatalogRecord).
const FormatVersion = 5

// DefaultPoolPages is the buffer-pool capacity used when Options does
// not specify one.
const DefaultPoolPages = 64

// DefaultCheckpointBytes is the WAL size that triggers an automatic
// checkpoint after a commit when Options does not specify one.
const DefaultCheckpointBytes = 4 << 20

// ErrCorrupt is storage.ErrCorrupt, the one corruption sentinel: it is
// wrapped by every error caused by a malformed database file
// (truncation, torn pages, garbage records, an index that disagrees
// with its heap), whichever layer found it.
var ErrCorrupt = storage.ErrCorrupt

// wrapCorrupt prefixes err, met while reading the file, with what was
// being read, and makes it ErrCorrupt unless it already is: the
// sentinel is named once in the message.
func wrapCorrupt(err error, format string, args ...any) error {
	what := fmt.Sprintf(format, args...)
	if errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("%s: %w", what, err)
	}
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
}

// ErrMispaired is returned when the data file and the WAL sidecar next
// to it carry different database ids — a shuffled, copied, or
// hand-restored pair. Replaying the wrong log would splice another
// database's pages into this one, so the open is refused.
var ErrMispaired = errors.New("store: data file and WAL sidecar belong to different databases")

// catalogRoot is the page id of the catalog heap's first page.
const catalogRoot = 1

// Txn is the store's transaction handle — the unit a statement's
// writes are grouped under and committed as one WAL batch. It is the
// buffer pool's handle verbatim; all store APIs that mutate pages take
// one, and Store.Commit (never the pool directly) commits it so the
// free-list ownership and checkpoint bookkeeping stay correct.
type Txn = storage.Txn

// Options tunes a Store.
type Options struct {
	// PoolPages is the buffer-pool capacity in pages (0 = default).
	PoolPages int
	// OpenFile opens database files (the data file and the WAL
	// sidecar). nil = the operating-system filesystem. Crash tests
	// substitute an in-memory recording implementation.
	OpenFile storage.OpenFileFunc
	// RemoveFile deletes a file; used to remove the WAL sidecar on a
	// clean close (its absence marks a clean shutdown). nil = os.Remove.
	RemoveFile func(name string) error
	// CheckpointBytes is the WAL size at which a commit triggers an
	// automatic checkpoint (sync the data file, reset the log).
	// 0 = DefaultCheckpointBytes, negative = only checkpoint on
	// Flush/Close.
	CheckpointBytes int64
	// NoSweep suppresses the one NON-recovery write Open can perform:
	// the orphan-page sweep (after crash recovery). Read-only and
	// load-once callers set it so opening a file never mutates it
	// beyond what crash recovery, when the file demands it, writes.
	NoSweep bool
}

// Store is one paged database file: a catalog of relation stores
// sharing a pager, a write-ahead log, and a buffer pool.
type Store struct {
	mu      sync.Mutex
	pager   *storage.Pager
	bp      *storage.BufferPool
	wal     *storage.WAL
	walPath string
	remove  func(string) error
	ckptAt  int64
	dbid    uint64
	catalog *storage.HeapFile
	rels    map[string]*RelStore

	// Snapshot visibility (see snapshot.go), under mu: pending maps each
	// open transaction to the catalog marks its commit will publish;
	// ghosts retains dropped relations still readable by pinned
	// snapshots.
	pending map[*Txn]*txnMarks
	ghosts  []*RelStore

	// The free list is shared mutable state between concurrent
	// transactions, so it has a transaction-scoped owner: the first
	// push/pop by a transaction takes ownership until that transaction
	// commits, and other transactions' free-list operations wait (or,
	// for recycling, fall through to growing the file). This keeps a
	// dropped chain's pages from being handed to another transaction
	// before the drop is durable — across a crash the catalog and the
	// free list can never disagree about who owns a page.
	freeMu    sync.Mutex
	freeCond  *sync.Cond
	freeOwner *Txn
	freeHeap  *storage.HeapFile
	free      []freeEntry

	openStats storage.PoolStats
	recovery  RecoveryReport
}

// RecoveryReport says what Open did to bring a file that was not closed
// cleanly back to its last committed state; zero after a clean close.
type RecoveryReport struct {
	Sidecar      bool             // a WAL sidecar was on disk
	Log          storage.WALStats // what the log scan found: batches, torn bytes, time
	PagesWritten int              // logged pages written into the data file
	PagesSkipped int              // logged pages the LSN gate skipped: the file's copy was as new
	OrphansSwept int              // unreferenced pages returned to the free list
}

// Open opens the paged database at path, creating and initializing the
// file when it does not exist (or is empty). Opening is also the
// recovery point: committed batches found in the WAL sidecar are
// replayed into the data file (healing torn pages and lost tails) and
// the log's torn tail, if any, is discarded — see docs/recovery.md. A
// sidecar whose header carries a different database id than the data
// file is refused (ErrMispaired) before any replay. On an existing
// file the catalog is then read and every relation attaches to its
// durable B+trees — O(catalog + one meta page per shard) page reads,
// never a heap scan.
func Open(path string, opts Options) (*Store, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = DefaultPoolPages
	}
	openFile := opts.OpenFile
	if openFile == nil {
		openFile = storage.OpenOSFile
	}
	remove := opts.RemoveFile
	if remove == nil {
		remove = os.Remove
	}
	ckptAt := opts.CheckpointBytes
	if ckptAt == 0 {
		ckptAt = DefaultCheckpointBytes
	}

	walPath := path + ".wal"
	// OpenWAL names ErrCorrupt for a bad header or version; its other
	// errors are the file system's, and stay so.
	wal, err := storage.OpenWAL(walPath, openFile)
	if err != nil {
		return nil, err
	}
	// A sidecar on disk marks a crashed (or still-open) database — the
	// only kind whose degraded paths can have orphaned pages, so only
	// those opens pay for the sweep's chain walks.
	hadSidecar := wal.Existed()
	closeWAL := func() { wal.Close() }

	df, err := openFile(path, true)
	if err != nil {
		closeWAL()
		return nil, err
	}
	size, err := df.Size()
	if err != nil {
		df.Close()
		closeWAL()
		return nil, err
	}
	if size%storage.PageSize != 0 {
		// A ragged tail is a torn extension write (Pager.Allocate grows
		// the file mid-statement, before the statement's batch exists in
		// the log), so the partial page is never committed data: round
		// the file down and let replay and validation decide. This is
		// safe even with an empty log because every committed live page
		// is referenced — by the catalog, the free list, or a heap
		// chain — so if the rounding cut real data, catalog/chain
		// validation below fail-stops; silent loss is impossible. A file
		// rounded down to zero pages has no catalog to validate against
		// and is refused rather than silently re-initialized.
		rounded := size - size%storage.PageSize
		if rounded == 0 && wal.Stats().RecoveredBatches == 0 {
			df.Close()
			closeWAL()
			return nil, fmt.Errorf("%w: file size %d is less than one page and no WAL to recover from", ErrCorrupt, size)
		}
		if err := df.Truncate(rounded); err != nil {
			df.Close()
			closeWAL()
			return nil, err
		}
	}
	pg, err := storage.NewPager(df)
	if err != nil {
		df.Close()
		closeWAL()
		return nil, err
	}

	// Pairing check, BEFORE any replay: if both the data file's header
	// (readable without the log) and the sidecar carry a database id
	// and they differ, the sidecar belongs to another database and
	// replaying it would corrupt this one.
	if dataID := probeDBID(pg); dataID != 0 && wal.DBID() != 0 && dataID != wal.DBID() {
		pg.Close()
		closeWAL()
		return nil, fmt.Errorf("%w: data file id %016x, sidecar id %016x",
			ErrMispaired, dataID, wal.DBID())
	} else if dataID == 0 && wal.DBID() != 0 {
		// Page 1 failed its checksum (or lacks an id): before trusting
		// the sidecar to repair it, cross-check the header's raw
		// fixed-offset bytes. A torn prefix-write usually preserves the
		// first few dozen bytes of the page, so a still-legible id that
		// contradicts the sidecar exposes a mispaired restore that the
		// checksum-gated probe above is blind to; only a header whose id
		// bytes are themselves destroyed falls back to the best-effort
		// behavior (trust the sidecar — a legitimate crash pairing).
		if rawID := probeDBIDRaw(pg); rawID != 0 && rawID != wal.DBID() {
			pg.Close()
			closeWAL()
			return nil, fmt.Errorf("%w: torn data file header id %016x, sidecar id %016x",
				ErrMispaired, rawID, wal.DBID())
		}
	}

	// Redo: apply the latest committed image of every logged page, gated
	// by the page LSN (written only when the data file's copy is torn or
	// older), so a crash mid-replay or a double replay skips what landed.
	// The log stays as it is, the durable copy of these unsynced writes:
	// new commits append after it, and a checkpoint or Close retires it.
	report := RecoveryReport{Sidecar: hadSidecar, Log: wal.Stats()}
	for pid, img := range wal.CommittedImages() {
		if err := pg.EnsureAllocated(pid); err != nil {
			pg.Close()
			closeWAL()
			return nil, err
		}
		var cur storage.Page
		if pg.Read(pid, &cur) == nil && cur.VerifyChecksum() == nil && cur.LSN() >= img.LSN() {
			report.PagesSkipped++
			continue
		}
		if err := pg.Write(pid, img); err != nil {
			pg.Close()
			closeWAL()
			return nil, err
		}
		report.PagesWritten++
	}

	// Seed the MVCC commit clock from durable state instead of starting
	// at zero: the log's clock (persisted in its header at checkpoints,
	// carried by commit records between them) and the catalog root's
	// page LSN (a clean close seals the final clock there before the
	// sidecar is removed), whichever is higher. Snapshot LSNs therefore
	// stay meaningful across restarts, and a commit after reopen can
	// never reuse an LSN already stamped on a durable page.
	clockSeed := wal.Clock()
	if pg.NumPages() >= catalogRoot {
		var p1 storage.Page
		if pg.Read(catalogRoot, &p1) == nil && p1.VerifyChecksum() == nil {
			if l := p1.LSN(); l > clockSeed {
				clockSeed = l
			}
		}
	}
	wal.SetClock(clockSeed)

	bp, err := storage.NewBufferPool(pg, opts.PoolPages)
	if err != nil {
		pg.Close()
		closeWAL()
		return nil, err
	}
	bp.AttachWAL(wal)
	bp.SetLSN(clockSeed)
	s := &Store{
		pager: pg, bp: bp, wal: wal, walPath: walPath,
		remove: remove, ckptAt: ckptAt,
		rels:    make(map[string]*RelStore),
		pending: make(map[*Txn]*txnMarks),
	}
	s.freeCond = sync.NewCond(&s.freeMu)
	existing := pg.NumPages() > 0
	if !existing {
		if err := s.initFile(); err != nil {
			s.Discard()
			return nil, err
		}
	} else {
		if err := s.loadCatalog(); err != nil {
			s.Discard()
			return nil, err
		}
		if err := s.loadFreeList(); err != nil {
			s.Discard()
			return nil, err
		}
	}
	// The catalog header is now authoritative; future sidecar
	// (re)creations carry this database's id.
	if s.dbid != 0 && wal.DBID() != 0 && s.dbid != wal.DBID() {
		s.Discard()
		return nil, fmt.Errorf("%w: data file id %016x, sidecar id %016x",
			ErrMispaired, s.dbid, wal.DBID())
	}
	wal.SetDBID(s.dbid)
	// Reclaim pages the degraded paths orphaned (after SetDBID, so a
	// sweep that creates the sidecar stamps the right database id). A
	// cleanly-closed file has no sidecar and skips the walk — clean
	// opens stay bounded by catalog + index metadata.
	if existing && !opts.NoSweep && hadSidecar {
		free := len(s.free)
		if err := s.sweepOrphans(); err != nil {
			s.Discard()
			return nil, err
		}
		report.OrphansSwept = len(s.free) - free
	}
	s.recovery = report
	// Recycling starts only now: nothing above may hand out free pages,
	// and the open-phase I/O is bucketed away from steady-state stats.
	bp.SetAllocator(s.recycle)
	s.openStats = bp.TakeStats()
	return s, nil
}

// probeDBID best-effort reads the database id from the catalog header
// record (page 1, slot 0) without the buffer pool, returning 0 when the
// page is missing or torn. Used by the open-time pairing check, which
// must run before WAL replay.
func probeDBID(pg *storage.Pager) uint64 {
	if pg.NumPages() < catalogRoot {
		return 0
	}
	var p storage.Page
	if pg.Read(catalogRoot, &p) != nil {
		return 0
	}
	if p.VerifyChecksum() != nil || p.Validate() != nil {
		return 0
	}
	rec, err := p.Get(0)
	if err != nil || len(rec) != headerRecordLen || string(rec[:4]) != string(Magic[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(rec[5:])
}

// probeDBIDRaw reads the database id from page 1's FIXED byte offsets,
// deliberately ignoring the failed checksum and the (end-of-page, so
// least-torn-write-safe) slot directory: the catalog header record is
// pinned to page 1, slot 0, record offset 0, so its magic, version
// byte, and id always live at the same raw positions. Returns 0 unless
// the magic and the version byte survive — garbage never
// impersonates an id.
func probeDBIDRaw(pg *storage.Pager) uint64 {
	if pg.NumPages() < catalogRoot {
		return 0
	}
	var p storage.Page
	if pg.Read(catalogRoot, &p) != nil {
		return 0
	}
	// Records grow up from byte 20 (the page header, including the page
	// LSN), and the catalog header is always the page's first record,
	// so: [20:24) magic, [24] version, [25:33) database id.
	if string(p[20:24]) != string(Magic[:]) {
		return 0
	}
	if p[24] != FormatVersion {
		return 0
	}
	return binary.LittleEndian.Uint64(p[25:33])
}

// headerRecordLen is the catalog header record's size: magic, version
// byte, database id.
const headerRecordLen = 13

// newDBID draws a random nonzero database identity.
func newDBID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// ids only gate the pairing check; a degraded source must
			// not block database creation
			return 1
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// Begin starts a transaction. Transactions are single-goroutine; every
// mutating store call takes one, and Store.Commit makes its writes
// durable as one atomic batch.
func (s *Store) Begin() *Txn { return s.bp.Begin() }

// initFile lays out a fresh database: the catalog heap with its header
// record (carrying a fresh random database id) and the free-list heap,
// committed and checkpointed.
func (s *Store) initFile() error {
	txn := s.Begin()
	cat, err := storage.CreateHeap(s.bp, txn)
	if err != nil {
		return err
	}
	if cat.FirstPage() != catalogRoot {
		return fmt.Errorf("store: catalog heap allocated at page %d, want %d", cat.FirstPage(), catalogRoot)
	}
	s.catalog = cat
	s.dbid = newDBID()
	// stamp the sidecar before the first commit creates it, so its
	// header carries the id from byte one
	s.wal.SetDBID(s.dbid)
	hdr := append(append([]byte{}, Magic[:]...), FormatVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.dbid)
	if _, err := cat.Insert(txn, hdr); err != nil {
		return err
	}
	if err := s.initFreeList(txn); err != nil {
		return err
	}
	if err := s.Commit(txn); err != nil {
		return err
	}
	return s.Flush()
}

// loadCatalog reads the header and every relation record, opening each
// relation's heap and attaching its indexes.
func (s *Store) loadCatalog() error {
	s.catalog = storage.OpenHeapAt(s.bp, catalogRoot)
	var err error
	sawHeader := false
	var defs []catalogEntry
	scanErr := s.catalog.Scan(func(rid storage.RID, rec []byte) bool {
		if len(rec) == 0 {
			err = fmt.Errorf("%w: empty catalog record at %v", ErrCorrupt, rid)
			return false
		}
		switch rec[0] {
		case Magic[0]:
			if len(rec) < 5 || string(rec[:4]) != string(Magic[:]) {
				err = fmt.Errorf("%w: bad header record", ErrCorrupt)
				return false
			}
			if rec[4] != FormatVersion {
				err = fmt.Errorf("%w: format version %d, only version %d is supported", ErrCorrupt, rec[4], FormatVersion)
				return false
			}
			if len(rec) != headerRecordLen {
				err = fmt.Errorf("%w: header record is %d bytes, want %d (no database id)", ErrCorrupt, len(rec), headerRecordLen)
				return false
			}
			s.dbid = binary.LittleEndian.Uint64(rec[5:])
			sawHeader = true
			return true
		case relRecordTag:
			ce, derr := decodeCatalogRecord(rec)
			if derr != nil {
				err = derr
				return false
			}
			ce.rid = rid
			defs = append(defs, ce)
			return true
		default:
			err = fmt.Errorf("%w: unknown catalog record tag %q at %v", ErrCorrupt, rec[0], rid)
			return false
		}
	})
	if scanErr != nil {
		return wrapCorrupt(scanErr, "scanning catalog")
	}
	if err != nil {
		return err
	}
	if !sawHeader {
		return fmt.Errorf("%w: missing header record", ErrCorrupt)
	}
	for _, ce := range defs {
		if _, dup := s.rels[ce.def.Name]; dup {
			return fmt.Errorf("%w: duplicate catalog entry for %q", ErrCorrupt, ce.def.Name)
		}
		rs, err := openRelStore(s, ce)
		if err != nil {
			return err
		}
		s.rels[ce.def.Name] = rs
	}
	return nil
}

// VerifyIndexes checks every relation's indexes against a fresh heap
// scan — the rebuild oracle (see RelStore.VerifyIndex). It performs no
// writes; tests and the crash harnesses call it after every recovery
// to assert the durable index is never more than a view of the heap.
func (s *Store) VerifyIndexes() error {
	s.mu.Lock()
	rels := make(map[string]*RelStore, len(s.rels))
	for n, rs := range s.rels {
		rels[n] = rs
	}
	s.mu.Unlock()
	for name, rs := range rels {
		if err := rs.VerifyIndex(); err != nil {
			return fmt.Errorf("relation %q: %w", name, err)
		}
	}
	return nil
}

// CreateRelation registers a new empty relation under txn: per shard a
// fresh heap chain and B+tree, and one catalog record pointing at all
// of them. The caller owns the commit
// boundary (the engine commits once per statement).
func (s *Store) CreateRelation(txn *Txn, def RelationDef) (*RelStore, error) {
	if err := def.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.rels[def.Name]; dup {
		return nil, fmt.Errorf("store: relation %q already exists", def.Name)
	}
	k := def.Shards
	if k <= 0 {
		k = 1
	}
	def.Shards = k
	shards := make([]*Shard, 0, k)
	roots := make([]shardRoots, 0, k)
	for ord := 0; ord < k; ord++ {
		heap, err := storage.CreateHeap(s.bp, txn)
		if err != nil {
			return nil, err
		}
		rangeD, err := storage.CreateBTree(s.bp, txn)
		if err != nil {
			return nil, err
		}
		roots = append(roots, shardRoots{heap.FirstPage(), rangeD.Root()})
		shards = append(shards, &Shard{st: s, def: def, ord: ord, heap: heap, rangeD: rangeD})
	}
	rid, err := s.catalog.Insert(txn, encodeCatalogRecord(def, roots))
	if err != nil {
		return nil, err
	}
	// invisible to snapshots until the commit publishes it
	rs := &RelStore{st: s, def: def, catRID: rid, shards: shards, visibleAt: ^uint64(0)}
	s.markCreateLocked(txn, rs)
	s.rels[def.Name] = rs
	return rs, nil
}

// DropRelation removes a relation's durable state under txn: its
// catalog record is tombstoned and its pages — every shard's heap chain
// and B+tree — are pushed onto the free list for reuse,
// all in the same transaction, so across a crash the catalog and the
// free list agree. The in-memory catalog entry is kept until
// CompleteDrop, so a failed commit can be rolled back (Rollback) with
// the relation fully intact. Failures before the catalog delete leave
// the relation untouched; a free-list failure after it degrades to
// orphaned pages (never double-owned pages or a dangling catalog
// entry).
func (s *Store) DropRelation(txn *Txn, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.rels[name]
	if !ok {
		return fmt.Errorf("store: unknown relation %q", name)
	}
	pids, err := rs.pages()
	if err != nil {
		return err
	}
	if err := s.catalog.Delete(txn, rs.catRID); err != nil {
		return err
	}
	s.markDropLocked(txn, rs)
	if err := s.freePages(txn, pids); err != nil {
		// the relation is gone either way; the unfreed pages are
		// orphaned until the next open's sweep reclaims them
		return nil
	}
	return nil
}

// CompleteDrop removes the in-memory catalog entry of a dropped
// relation — call it after the drop's transaction committed. If a
// pinned snapshot predates the drop, the entry parks on the ghost list
// (still readable through those pins) until the last such pin closes.
func (s *Store) CompleteDrop(name string) {
	s.mu.Lock()
	if rs, ok := s.rels[name]; ok {
		delete(s.rels, name)
		if rs.droppedAt != 0 {
			if min, any := s.bp.MinPinnedLSN(); any && min < rs.droppedAt {
				s.ghosts = append(s.ghosts, rs)
			}
		}
	}
	s.mu.Unlock()
}

// ForgetRelation discards the in-memory entry of a relation whose
// creation was rolled back. It does not touch the transaction: the
// engine's rollback calls Rollback once for the whole transaction and
// then forgets each pending create.
func (s *Store) ForgetRelation(name string) {
	s.CompleteDrop(name)
}

// Rollback discards the transaction's uncommitted page mutations: its
// dirty frames are dropped from the pool (the next read sees the last
// committed state — no-steal guarantees nothing uncommitted reached
// the file) and, if the transaction owned the free list, the in-memory
// mirror is rebuilt from the (now rolled-back) free-list heap so
// entries the transaction pushed or popped are forgotten or restored.
// The engine's rollback uses it so a failed commit can never wedge page
// ownership or leak half-applied catalog state; pages the pager
// allocated for a rolled-back create stay orphaned (unreferenced,
// checksum-valid) until the next open's sweep reclaims them.
func (s *Store) Rollback(txn *Txn) error {
	err := s.bp.Rollback(txn)
	// The rolled-back transaction may have chained fresh pages onto the
	// catalog heap (CreateRelation) whose frames are now discarded;
	// re-walk the chain so the cached insertion target never names a
	// page that is no longer linked.
	s.mu.Lock()
	s.dropMarksLocked(txn)
	if rerr := s.catalog.Rewind(); rerr != nil && err == nil {
		err = rerr
	}
	s.mu.Unlock()
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if s.freeOwner != txn {
		return err
	}
	s.freeOwner = nil
	s.freeCond.Broadcast()
	s.free = s.free[:0]
	if rerr := s.freeHeap.Rewind(); rerr != nil && err == nil {
		err = rerr
	}
	if scanErr := s.freeHeap.Scan(func(rid storage.RID, rec []byte) bool {
		if len(rec) == 4 {
			s.free = append(s.free, freeEntry{pid: binary.LittleEndian.Uint32(rec), rid: rid})
		}
		return true
	}); scanErr != nil && err == nil {
		err = scanErr
	}
	return err
}

// Rel looks up a relation store by name.
func (s *Store) Rel(name string) (*RelStore, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.rels[name]
	return rs, ok
}

// Relations returns the names of all stored relations, sorted.
func (s *Store) Relations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Commit makes the transaction durable: its dirty pages go to the WAL
// as one batch, merged with concurrently committing transactions into
// a single log write and fsync (leader/follower group commit), then
// write through to the data file. The transaction's free-list
// ownership, if any, is released. When the log has grown past the
// checkpoint threshold the commit is followed by an automatic
// checkpoint.
func (s *Store) Commit(txn *Txn) error {
	lsn, err := s.bp.CommitTxn(txn)
	s.releaseFree(txn)
	if err != nil {
		return err
	}
	s.publishMarks(txn, lsn)
	if s.ckptAt > 0 && s.wal.Size() >= s.ckptAt {
		return s.Flush()
	}
	return nil
}

// Flush is the checkpoint: sync the data file and reset the log (whose
// committed batches are now redundant). Uncommitted transactions'
// pages are untouched — they are buffered only, and become durable at
// their own Commit.
func (s *Store) Flush() error {
	return s.bp.Checkpoint()
}

// sealClock persists the commit clock across a clean close: the
// sidecar (whose header carries the clock) is about to be removed, so
// if the clock has advanced past what the catalog root's page LSN
// records, one WAL-protected micro-commit touching the catalog root
// stamps the final clock into its page header. A session that wrote
// nothing skips this entirely — closing a read-only open leaves the
// file byte-identical.
func (s *Store) sealClock() error {
	cur := s.bp.LSN()
	if cur == 0 || s.pager.NumPages() < catalogRoot {
		return nil
	}
	fr, err := s.bp.Get(catalogRoot)
	if err != nil {
		return err
	}
	sealed := fr.Page().LSN()
	if err := s.bp.Unpin(fr, false); err != nil {
		return err
	}
	if sealed >= cur {
		return nil
	}
	txn := s.Begin()
	mf, err := s.bp.GetMut(txn, catalogRoot)
	if err != nil {
		return err
	}
	if err := s.bp.Unpin(mf, true); err != nil {
		return err
	}
	return s.Commit(txn)
}

// Close seals the commit clock, fsyncs the data file and deletes the
// WAL sidecar without resetting it: its absence marks a clean shutdown,
// and a crash before the delete leaves a log that replays as all
// skipped. Transactions still open at Close are discarded. A failed
// pool (storage.ErrFailed) writes nothing: Close closes both files,
// keeps the log for the next Open to apply, and returns the error.
func (s *Store) Close() error {
	err := s.sealClock()
	if err == nil {
		err = s.bp.SyncData()
	}
	existed, werr := s.wal.Close()
	if err == nil && werr == nil && existed {
		if werr = s.remove(s.walPath); os.IsNotExist(werr) {
			werr = nil
		}
	}
	if cerr := s.pager.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = werr
	}
	return err
}

// Discard closes the underlying files WITHOUT flushing dirty buffered
// pages or checkpointing — for error paths that must not mutate a file
// they failed to open or attach, and for crash simulation in tests.
func (s *Store) Discard() error {
	s.wal.Close()
	return s.pager.Close()
}

// PoolStats reports the shared buffer pool's (hits, misses, evictions)
// accumulated since Open returned; open-time I/O (recovery replay,
// catalog load, index rebuild) is bucketed separately in OpenIOStats.
func (s *Store) PoolStats() (hits, misses, evictions int) { return s.bp.Stats() }

// AllPoolStats returns every buffer-pool counter (including overflows
// and checksum repairs) since Open returned, and the snapshot gauges.
func (s *Store) AllPoolStats() storage.PoolStats { return s.bp.Snapshot() }

// OpenIOStats returns the buffer-pool counters consumed by Open itself:
// recovery replay, catalog load, and index rebuild. Keeping this bucket
// separate keeps steady-state hit rates honest.
func (s *Store) OpenIOStats() storage.PoolStats { return s.openStats }

// RecoveryReport returns what this Open's crash recovery did.
func (s *Store) RecoveryReport() RecoveryReport { return s.recovery }

// WALStats reports write-ahead-log activity, including what open-time
// recovery replayed and how many transactions the group-commit
// scheduler merged per fsync.
func (s *Store) WALStats() storage.WALStats { return s.wal.Stats() }
