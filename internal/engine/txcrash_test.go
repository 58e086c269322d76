package engine

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// This file is the engine-level crash-injection harness for
// multi-statement transactions: the whole database lives in an
// in-memory filesystem that journals every write, ONE transaction of
// several statements across TWO relations commits as one merged WAL
// group, and a crash is re-created at EVERY byte offset of the journal
// (in-order and reordered modes). Recovery must always land on a
// whole-TRANSACTION boundary: both relations together are either the
// pre-Begin state or the committed state — never a mix, never a
// mid-statement form. (The store-level harness in internal/store
// covers per-statement and merged-group tearing; this one pins the
// engine's Tx bracketing to the same guarantee.)

// txOp is one journaled mutation of the recording filesystem.
type txOp struct {
	name string
	kind byte // 'w' write, 't' truncate, 's' sync
	off  int64
	data []byte
	size int64
}

func (op txOp) cost() int64 {
	switch op.kind {
	case 'w':
		return int64(len(op.data))
	case 't':
		return 1
	default:
		return 0
	}
}

// txFS is a minimal in-memory filesystem implementing the storage.File
// contract with a write journal (a sibling of the store package's
// crash harness, kept local because that one lives in test code).
type txFS struct {
	mu        sync.Mutex
	files     map[string][]byte
	journal   []txOp
	recording bool
	// failWrite, when set, is asked before every WriteAt; a non-nil
	// error fails the write with the file untouched.
	failWrite func(name string) error
}

func newTxFS() *txFS { return &txFS{files: map[string][]byte{}} }

func (m *txFS) open(name string, create bool) (storage.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		if !create {
			return nil, fmt.Errorf("txfs: open %s: %w", name, fs.ErrNotExist)
		}
		m.files[name] = nil
	}
	return &txFile{fs: m, name: name}, nil
}

func (m *txFS) remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fs.ErrNotExist
	}
	delete(m.files, name)
	return nil
}

func (m *txFS) snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for n, b := range m.files {
		out[n] = append([]byte(nil), b...)
	}
	return out
}

type txFile struct {
	fs   *txFS
	name string
}

func (f *txFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b := f.fs.files[f.name]
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *txFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.failWrite != nil {
		if err := f.fs.failWrite(f.name); err != nil {
			return 0, err
		}
	}
	txApplyWrite(f.fs.files, f.name, off, p)
	if f.fs.recording {
		f.fs.journal = append(f.fs.journal, txOp{name: f.name, kind: 'w', off: off, data: append([]byte(nil), p...)})
	}
	return len(p), nil
}

func (f *txFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	txApplyTruncate(f.fs.files, f.name, size)
	if f.fs.recording {
		f.fs.journal = append(f.fs.journal, txOp{name: f.name, kind: 't', size: size})
	}
	return nil
}

func (f *txFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.recording {
		f.fs.journal = append(f.fs.journal, txOp{name: f.name, kind: 's'})
	}
	return nil
}

func (f *txFile) Close() error { return nil }

func (f *txFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.fs.files[f.name])), nil
}

func txApplyWrite(files map[string][]byte, name string, off int64, p []byte) {
	b := files[name]
	if need := off + int64(len(p)); need > int64(len(b)) {
		nb := make([]byte, need)
		copy(nb, b)
		b = nb
	}
	copy(b[off:], p)
	files[name] = b
}

func txApplyTruncate(files map[string][]byte, name string, size int64) {
	b := files[name]
	if size <= int64(len(b)) {
		files[name] = b[:size]
	} else {
		nb := make([]byte, size)
		copy(nb, b)
		files[name] = nb
	}
}

// txCrashState materializes the durable state a crash at byte offset k
// of the journal would leave. inorder applies the journal up to k,
// tearing the op containing k; reordered persists only what the last
// fsync barrier before k covered plus the torn op's prefix (the OS
// dropped everything unsynced).
func txCrashState(base map[string][]byte, journal []txOp, k int64, reordered bool) map[string][]byte {
	files := make(map[string][]byte, len(base))
	for n, b := range base {
		files[n] = append([]byte(nil), b...)
	}
	apply := func(op txOp, upto int64) {
		switch op.kind {
		case 'w':
			if upto > int64(len(op.data)) {
				upto = int64(len(op.data))
			}
			txApplyWrite(files, op.name, op.off, op.data[:upto])
		case 't':
			if upto > 0 {
				txApplyTruncate(files, op.name, op.size)
			}
		}
	}
	if !reordered {
		at := int64(0)
		for _, op := range journal {
			c := op.cost()
			if at+c <= k {
				apply(op, c)
				at += c
				continue
			}
			apply(op, k-at)
			break
		}
		return files
	}
	at := int64(0)
	tornIdx, tornBytes := -1, int64(0)
	for i, op := range journal {
		c := op.cost()
		if at+c > k {
			tornIdx, tornBytes = i, k-at
			break
		}
		at += c
	}
	if tornIdx == -1 {
		tornIdx = len(journal)
	}
	lastSync := 0
	for i := 0; i < tornIdx; i++ {
		if journal[i].kind == 's' {
			lastSync = i + 1
		}
	}
	for i := 0; i < lastSync; i++ {
		apply(journal[i], journal[i].cost())
	}
	if tornIdx < len(journal) {
		apply(journal[tornIdx], tornBytes)
	}
	return files
}

// TestTxCrashRecoveryEveryOffset: a 4-statement transaction on two
// relations commits as one WAL group; a crash at every byte offset of
// the journal (both replay modes) must recover BOTH relations on the
// same side of the transaction boundary with every page checksum-valid.
func TestTxCrashRecoveryEveryOffset(t *testing.T) {
	fsys := newTxFS()
	open := func() *Database {
		t.Helper()
		db, err := Open("db",
			WithFileSystem(fsys.open, fsys.remove),
			WithPoolPages(8), WithCheckpointBytes(-1))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	// base: two relations with committed seed data, cleanly closed
	db := open()
	seed := []tuple.Flat{
		row("s1", "c1", "b1"), row("s1", "c2", "b1"), row("s2", "c1", "b2"),
	}
	for _, name := range []string{"r1", "r2"} {
		if err := db.Create(txTestDef(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany(name, seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// reference states: pre = the seed; post = seed + the transaction
	pre := loadRels(t, fsys.snapshot(), "reference pre")
	db2 := open()
	defer db2.Close()
	// base = the files at recording start; every crash state is the
	// journal's prefix replayed over it
	base := fsys.snapshot()
	fsys.mu.Lock()
	fsys.recording = true
	fsys.journal = nil
	fsys.mu.Unlock()
	tx, err := db2.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stmts := []struct {
		rel    string
		f      tuple.Flat
		insert bool
	}{
		{"r1", row("s9", "c9", "b9"), true},
		{"r1", row("s1", "c1", "b1"), false},
		{"r2", row("s2", "c4", "b2"), true},
		{"r2", row("s7", "c7", "b7"), true},
	}
	for i, s := range stmts {
		var err error
		if s.insert {
			_, err = tx.Insert(s.rel, s.f)
		} else {
			_, err = tx.Delete(s.rel, s.f)
		}
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fsys.mu.Lock()
	fsys.recording = false
	journal := fsys.journal
	fsys.mu.Unlock()
	post := loadRels(t, fsys.snapshot(), "reference post")
	if pre["r1"].Equal(post["r1"]) || pre["r2"].Equal(post["r2"]) {
		t.Fatal("transaction changed nothing; harness is vacuous")
	}

	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	if total == 0 {
		t.Fatal("empty journal")
	}
	t.Logf("journal: %d ops, %d injection points", len(journal), total)

	// fan the independent per-offset recoveries out across CPUs — the
	// journal now carries index pages in every batch, so the every-byte
	// sweep is wide. -short (CI's repeated -race job) strides the
	// offsets; the default run covers every byte.
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	workers := runtime.GOMAXPROCS(0)
	var next, failed atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := (next.Add(1) - 1) * stride
				if k > total || failed.Load() != 0 {
					return
				}
				for _, mode := range []string{"inorder", "reordered"} {
					state := txCrashState(base, journal, k, mode == "reordered")
					label := fmt.Sprintf("%s@%d", mode, k)
					got, err := loadRelsErr(state, label)
					if err == nil {
						preSide := got["r1"].Equal(pre["r1"]) && got["r2"].Equal(pre["r2"])
						postSide := got["r1"].Equal(post["r1"]) && got["r2"].Equal(post["r2"])
						if !preSide && !postSide {
							err = fmt.Errorf("%s: recovery not on a transaction boundary:\nr1 %v\nr2 %v",
								label, got["r1"], got["r2"])
						}
					}
					if err != nil {
						if failed.CompareAndSwap(0, 1) {
							errs <- err
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// loadRels opens the database in the given filesystem state (running
// recovery), loads r1 and r2, verifies the durable indexes against the
// heap oracle, and checks every referenced page is checksum-valid.
func loadRels(t *testing.T, files map[string][]byte, label string) map[string]*core.Relation {
	t.Helper()
	out, err := loadRelsErr(files, label)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func loadRelsErr(files map[string][]byte, label string) (map[string]*core.Relation, error) {
	crashed := &txFS{files: files}
	// the verification open gets a roomy pool: recovery correctness
	// cannot depend on pool size (the writer side and the storage-layer
	// sweeps keep exercising redo under 8 pages), and the per-offset
	// index verification walks every tree repeatedly — through a tiny
	// pool that is thousands of checksummed re-reads per offset
	db, err := Open("db",
		WithFileSystem(crashed.open, crashed.remove),
		WithPoolPages(128), WithCheckpointBytes(-1))
	if err != nil {
		return nil, fmt.Errorf("%s: recovery failed: %v", label, err)
	}
	out := make(map[string]*core.Relation, 2)
	for _, name := range []string{"r1", "r2"} {
		rel, err := db.ReadRelation(context.Background(), name)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("%s: load %s: %v", label, name, err)
		}
		out[name] = rel
		// the recovered B+tree must answer an unbounded range scan with
		// exactly the heap's canonical tuples
		if info, err := db.IndexInfo(name); err == nil && info.Shards == 1 {
			byIdx, _, err := db.ScanFixedRange(name, nil, nil)
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("%s: range scan of recovered %s: %v", label, name, err)
			}
			if !byIdx.Equal(rel) {
				db.Close()
				return nil, fmt.Errorf("%s: recovered B+tree of %s disagrees with heap scan", label, name)
			}
		}
	}
	// recovery must land heap and index on the same boundary
	if err := db.VerifyIndexes(); err != nil {
		db.Close()
		return nil, fmt.Errorf("%s: index diverged from heap oracle: %v", label, err)
	}
	// checksum-check the pages the recovered state references; pages
	// stranded by uncommitted allocations are exempt (see the store
	// harness for why)
	ref, err := db.st.ReferencedPages()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("%s: walking recovered chains: %v", label, err)
	}
	db.Close()
	data := files["db"]
	if len(data)%storage.PageSize != 0 {
		return nil, fmt.Errorf("%s: recovered file size %d ragged", label, len(data))
	}
	var p storage.Page
	for pid := 0; pid < len(data)/storage.PageSize; pid++ {
		if !ref[uint32(pid+1)] {
			continue
		}
		copy(p[:], data[pid*storage.PageSize:])
		if err := p.VerifyChecksum(); err != nil {
			return nil, fmt.Errorf("%s: page %d of recovered file: %v", label, pid+1, err)
		}
	}
	return out, nil
}
