package store

import (
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

// This file is the crash-injection harness for the recovery protocol
// (docs/recovery.md): the whole database lives in an in-memory
// filesystem that journals every write, and the harness re-creates the
// on-disk state a crash would leave at EVERY byte offset of the journal
// — torn log tails, torn data pages, and lost unsynced writes — then
// reopens and asserts the canonical form is exactly a statement
// boundary, never a mix, the durable indexes answer identically to the
// heap-rebuilt oracle, and every page the recovered state references
// is checksum-valid.

// memOp is one journaled mutation.
type memOp struct {
	name string
	kind byte // 'w' write, 't' truncate, 's' sync
	off  int64
	data []byte
	size int64 // truncate target
}

// cost is the op's share of the byte-offset enumeration: every byte of
// a write is an injection point; truncates count as one point.
func (op memOp) cost() int64 {
	switch op.kind {
	case 'w':
		return int64(len(op.data))
	case 't':
		return 1
	default:
		return 0
	}
}

// memFS is an in-memory filesystem implementing the store's OpenFile
// hook, with a journal of all mutations while recording. syncHook, when
// set, runs at the start of every Sync (outside the lock) — the
// merged-commit crash test uses it to gate a leader's fsync while
// followers pile into the commit queue.
type memFS struct {
	mu        sync.Mutex
	files     map[string][]byte
	journal   []memOp
	recording bool
	syncHook  func(name string)
	failSyncs int // >0: the next N Syncs fail (injected commit errors)
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func (m *memFS) open(name string, create bool) (storage.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		if !create {
			return nil, fmt.Errorf("memfs: open %s: %w", name, fs.ErrNotExist)
		}
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fs.ErrNotExist
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) record(op memOp) {
	if m.recording {
		m.journal = append(m.journal, op)
	}
}

// snapshot deep-copies the current file contents.
func (m *memFS) snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for n, b := range m.files {
		out[n] = append([]byte(nil), b...)
	}
	return out
}

func (m *memFS) startRecording() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recording = true
	m.journal = nil
}

func (m *memFS) stopRecording() []memOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recording = false
	return m.journal
}

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) buf() []byte { return f.fs.files[f.name] }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b := f.buf()
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	applyWrite(f.fs.files, f.name, off, p)
	f.fs.record(memOp{name: f.name, kind: 'w', off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	applyTruncate(f.fs.files, f.name, size)
	f.fs.record(memOp{name: f.name, kind: 't', size: size})
	return nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	hook := f.fs.syncHook
	f.fs.mu.Unlock()
	if hook != nil {
		hook(f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.failSyncs > 0 {
		f.fs.failSyncs--
		return fmt.Errorf("memfs: injected sync failure on %s", f.name)
	}
	f.fs.record(memOp{name: f.name, kind: 's'})
	return nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.buf())), nil
}

func applyWrite(files map[string][]byte, name string, off int64, p []byte) {
	b := files[name]
	if need := off + int64(len(p)); need > int64(len(b)) {
		// amortised growth: a log is not copied whole on every append
		b = append(b, make([]byte, need-int64(len(b)))...)
	}
	copy(b[off:], p)
	files[name] = b
}

func applyTruncate(files map[string][]byte, name string, size int64) {
	b := files[name]
	if size <= int64(len(b)) {
		files[name] = b[:size]
	} else {
		nb := make([]byte, size)
		copy(nb, b)
		files[name] = nb
	}
}

// crashState materializes the durable state a crash at byte offset k of
// the journal would leave.
//
// inorder mode applies the journal's ops in order up to k, tearing the
// op containing k mid-way: the torn-tail families (log tail cut inside
// a record; data page cut inside a page write).
//
// reordered mode models the OS persisting nothing since the last fsync
// except the torn op itself: ops up to the last 's' barrier before k
// apply, everything after is dropped, and only the prefix of the op
// containing k lands. This is the "both torn" family — e.g. a
// committed statement's data-file writes all lost while the next
// statement's log append tore.
func crashState(base map[string][]byte, journal []memOp, k int64, reordered bool) map[string][]byte {
	files := make(map[string][]byte, len(base))
	for n, b := range base {
		files[n] = append([]byte(nil), b...)
	}
	apply := func(op memOp, upto int64) {
		switch op.kind {
		case 'w':
			if upto > int64(len(op.data)) {
				upto = int64(len(op.data))
			}
			applyWrite(files, op.name, op.off, op.data[:upto])
		case 't':
			if upto > 0 {
				applyTruncate(files, op.name, op.size)
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
	// find the op containing k and the last sync barrier before it
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

// loadStateErr opens the database in the given filesystem state and
// returns the canonical form of every named relation. Opening runs
// recovery; it must never fail, must leave every data page
// checksum-valid, and the recovered durable indexes must answer
// identically to the rebuilt-from-heap oracle.
func loadStateErr(files map[string][]byte, label string, names ...string) (map[string]*core.Relation, error) {
	fs := &memFS{files: files}
	st, err := Open("db", Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("%s: recovery failed: %v", label, err)
	}
	defer st.Discard()
	out := make(map[string]*core.Relation, len(names))
	for _, name := range names {
		rs, ok := st.Rel(name)
		if !ok {
			return nil, fmt.Errorf("%s: relation %s lost", label, name)
		}
		rel, err := rs.Load()
		if err != nil {
			return nil, fmt.Errorf("%s: load of %s failed: %v", label, name, err)
		}
		out[name] = rel
	}
	// the durable index must be exactly a view of the recovered heap
	if err := st.VerifyIndexes(); err != nil {
		return nil, fmt.Errorf("%s: index diverged from heap oracle: %v", label, err)
	}
	// every page the recovered state references is checksum-valid.
	// Unreferenced pages are exempt: a crash can strand an uncommitted
	// allocation's page torn or zeroed (nothing ordered its write), and
	// such orphans are never read — the sweep quarantines them and
	// NewPage re-initializes them before reuse.
	ref, err := st.ReferencedPages()
	if err != nil {
		return nil, fmt.Errorf("%s: walking recovered chains: %v", label, err)
	}
	data := fs.files["db"]
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

// loadState is loadStateErr for serial callers, failing the test on
// any error.
func loadState(t *testing.T, files map[string][]byte, label string, names ...string) map[string]*core.Relation {
	t.Helper()
	out, err := loadStateErr(files, label, names...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// loadCanon is loadState for the single relation R1.
func loadCanon(t *testing.T, files map[string][]byte, label string) *core.Relation {
	t.Helper()
	return loadState(t, files, label, "R1")["R1"]
}

// forEachOffset fans the per-offset crash checks out across CPUs: each
// offset's crash state and recovery are fully independent, and the
// journals grew with the index pages now riding every batch, so the
// every-byte harnesses are parallel to stay fast. check runs for every
// k in [0, total] in both replay modes and returns an error to fail
// the test. Under -short (CI's repeated -race job, which is after
// schedule-dependent races, not offset coverage) the offsets are
// strided; the default run covers every byte.
func forEachOffset(t *testing.T, total int64, check func(k int64, reordered bool) error) {
	t.Helper()
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	workers := runtime.GOMAXPROCS(0)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := (next.Add(1) - 1) * stride
				if k > total || failed.Load() != 0 {
					return
				}
				for _, reordered := range []bool{false, true} {
					if err := check(k, reordered); err != nil {
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

// TestCrashRecoveryEveryOffset is the acceptance harness: two
// statements are journaled, a crash is injected at every byte offset of
// the journal in both replay modes, and every reopen must recover a
// checksum-valid file whose canonical form is exactly the pre-, mid-,
// or post-statement state.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1}
	def := testDef(t)

	// base: a small multi-page database, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	if _, err := st.CreateRelation(setup, def); err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(5, workload.EnrollmentParams{
		Students: 12, CoursePool: 8, ClubPool: 4, SemesterPool: 3,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	rs, _ := st.Rel(def.Name)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(setup, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// a few fat padding tuples push the heap across several pages so the
	// statements below dirty (and the crashes tear) more than one page,
	// while keeping the per-reopen index rebuild cheap (the harness
	// reopens the database tens of thousands of times)
	pad := make([]byte, 700)
	for i := range pad {
		pad[i] = 'p'
	}
	for i := 0; i < 7; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("%s-%d", pad, i)}, {"padclub"}, {fmt.Sprintf("pads%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	base := fs.snapshot()
	if _, ok := base["db.wal"]; ok {
		t.Fatal("clean close left a WAL sidecar")
	}

	// journal two statements against the reopened database
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	pre, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	fs.startRecording()
	// statement 1: a mixed add/remove batch dirtying several pages
	// (victims from both ends of the heap chain), one transaction, one
	// group commit
	stmt1 := st2.Begin()
	for _, victim := range []int{0, pre.Len() - 1} {
		if err := rs2.Remove(stmt1, pre.Tuple(victim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs2.Insert(stmt1, tupleOf([][]string{{"zc1", "zc2"}, {"zb1"}, {"zs1"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Commit(stmt1); err != nil {
		t.Fatal(err)
	}
	mark1 := int64(0)
	for _, op := range fs.journal {
		mark1 += op.cost()
	}
	mid, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	// statement 2: another add/remove batch
	stmt2 := st2.Begin()
	if err := rs2.Insert(stmt2, tupleOf([][]string{{"zc3"}, {"zb2", "zb3"}, {"zs2"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := rs2.Remove(stmt2, mid.Tuple(1)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Commit(stmt2); err != nil {
		t.Fatal(err)
	}
	post, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	journal := fs.stopRecording()
	st2.Discard() // crash: no checkpoint, no close-time flush

	if pre.Equal(mid) || mid.Equal(post) || pre.Equal(post) {
		t.Fatal("statements must produce three distinct states")
	}
	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	if total < 2*storage.PageSize {
		t.Fatalf("journal too small (%d bytes) to exercise torn pages", total)
	}
	t.Logf("journal: %d ops, %d bytes (statement boundary at %d)", len(journal), total, mark1)

	matches := func(rel *core.Relation, allowed ...*core.Relation) bool {
		for _, a := range allowed {
			if rel.Equal(a) {
				return true
			}
		}
		return false
	}
	forEachOffset(t, total, func(k int64, reordered bool) error {
		label := fmt.Sprintf("k=%d reordered=%v", k, reordered)
		state, err := loadStateErr(crashState(base, journal, k, reordered), label, "R1")
		if err != nil {
			return err
		}
		got := state["R1"]
		// never a mix: only complete statement states are legal, and
		// a crash before the second statement's journal region can
		// never yield its outcome
		if k <= mark1 {
			if !matches(got, pre, mid) {
				return fmt.Errorf("%s: recovered state is not pre or mid statement state", label)
			}
		} else if !matches(got, pre, mid, post) {
			return fmt.Errorf("%s: recovered state is not a statement boundary", label)
		}
		return nil
	})
}

// TestCrashRecoveryAcrossCheckpoints: with an aggressive auto-checkpoint
// threshold the journal interleaves commits, data syncs, and log
// truncations; a crash at every op boundary must still recover a
// statement-boundary state (the post-checkpoint batches carry
// continuing sequence numbers — a regression here dropped them all).
func TestCrashRecoveryAcrossCheckpoints(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: 1}
	def := testDef(t)
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	if _, err := st.CreateRelation(setup, def); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	base := fs.snapshot()

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	fs.startRecording()
	states := []*core.Relation{}
	rel, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	states = append(states, rel)
	for i := 0; i < 4; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("c%d", i)}, {fmt.Sprintf("b%d", i)}, {fmt.Sprintf("s%d", i)},
		}, def.Order)
		stmt := st2.Begin()
		if err := rs2.Insert(stmt, tp); err != nil {
			t.Fatal(err)
		}
		if err := st2.Commit(stmt); err != nil { // checkpoints every time (threshold 1)
			t.Fatal(err)
		}
		rel, err := rs2.Load()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, rel)
	}
	journal := fs.stopRecording()
	st2.Discard()

	// crash at every op boundary (and mid-op at a stride) in both modes
	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	boundaries := map[int64]bool{0: true, total: true}
	at := int64(0)
	for _, op := range journal {
		at += op.cost()
		boundaries[at] = true
	}
	for k := int64(0); k <= total; k += 97 {
		boundaries[k] = true
	}
	for k := range boundaries {
		for _, reordered := range []bool{false, true} {
			label := fmt.Sprintf("ckpt k=%d reordered=%v", k, reordered)
			got := loadCanon(t, crashState(base, journal, k, reordered), label)
			ok := false
			for _, s := range states {
				if got.Equal(s) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: recovered state is not a statement boundary", label)
			}
		}
	}
}

// TestRaggedTailWithEmptyWAL: a torn extension write can land after a
// checkpoint emptied (or a clean close removed) the log — e.g. the
// first statement to grow the heap tears its Pager.Allocate write. The
// ragged tail is provably uncommitted, so reopen must round the file
// down and succeed rather than brick the database (a regression here
// made such files permanently unopenable).
func TestRaggedTailWithEmptyWAL(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove}
	def := testDef(t)
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	want := tupleOf([][]string{{"c1"}, {"b1"}, {"s1"}}, def.Order)
	if err := rs.Insert(txn, want); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// torn extension: a partial page appended past the committed end
	fs.files["db"] = append(fs.files["db"], make([]byte, 1234)...)
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatalf("ragged tail with empty WAL bricked the database: %v", err)
	}
	defer st2.Close()
	rs2, ok := st2.Rel(def.Name)
	if !ok {
		t.Fatal("relation lost")
	}
	rel, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || !rel.Tuple(0).Equal(want) {
		t.Fatal("content lost rounding off the torn tail")
	}
	// a file cut below one page still refuses (nothing to validate)
	fs2 := newMemFS()
	fs2.files["db"] = append([]byte(nil), fs.files["db"][:100]...)
	if _, err := Open("db", Options{PoolPages: 8, OpenFile: fs2.open, RemoveFile: fs2.remove}); err == nil {
		t.Fatal("sub-page file reopened without error")
	}
}

// TestDropRelationReclaimsPages: dropping a relation pushes its chain
// onto the free list and a subsequent relation reuses those pages
// instead of growing the file.
func TestDropRelationReclaimsPages(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove}
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(7, workload.EnrollmentParams{
		Students: 60, CoursePool: 20, ClubPool: 6, SemesterPool: 3,
		CoursesPerStudent: 4, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(txn, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	pages := st.NumPages()
	drop := st.Begin()
	if err := st.DropRelation(drop, def.Name); err != nil {
		t.Fatal(err)
	}
	if st.FreePages() == 0 {
		t.Fatal("drop reclaimed no pages")
	}
	if err := st.Commit(drop); err != nil {
		t.Fatal(err)
	}
	st.CompleteDrop(def.Name)
	freed := st.FreePages()

	// free list survives reopen
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.FreePages(); got != freed {
		t.Fatalf("free list lost across reopen: %d != %d", got, freed)
	}

	// a new relation of the same size reuses the freed pages: the file
	// barely grows
	def2 := def
	def2.Name = "R2"
	txn2 := st2.Begin()
	rs2, err := st2.CreateRelation(txn2, def2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < canon.Len(); i++ {
		if err := rs2.Insert(txn2, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	if grown := st2.NumPages() - pages; grown > 2 {
		t.Fatalf("file grew %d pages despite %d free pages", grown, freed)
	}
	got, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(canon) {
		t.Fatal("relation on recycled pages diverged")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStatsBucketedSeparately: the I/O spent by Open (recovery,
// catalog load, index rebuild) must not pollute the steady-state pool
// counters the bench reports.
func TestOpenStatsBucketedSeparately(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove}
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, _ := st.CreateRelation(txn, def)
	e := workload.GenEnrollment(5, workload.EnrollmentParams{
		Students: 30, CoursePool: 10, ClubPool: 4, SemesterPool: 3,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(txn, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	open := st2.OpenIOStats()
	if open.Misses == 0 {
		t.Fatal("open-phase bucket recorded no I/O despite an index rebuild")
	}
	if h, m, _ := st2.PoolStats(); h != 0 || m != 0 {
		t.Fatalf("steady-state counters polluted by open: hits=%d misses=%d", h, m)
	}
	rs2, _ := st2.Rel(def.Name)
	if _, err := rs2.Load(); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := st2.PoolStats(); h+m == 0 {
		t.Fatal("steady-state counters did not move after a scan")
	}
}

// TestCrashRecoveryMergedCommit crashes inside a MERGED commit batch:
// transaction T1's fsync is gated while T2 and T3 pile into the commit
// queue, so T2+T3 become one WAL write and one fsync. A crash at every
// byte offset of the journal must recover a prefix of the commit order
// (T2's batch precedes T3's inside the merged write) — always whole
// transactions, never a mix.
func TestCrashRecoveryMergedCommit(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 16, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1}

	// base: three one-tuple relations, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"R1", "R2", "R3"}
	setup := st.Begin()
	for i, name := range names {
		def := testDef(t)
		def.Name = name
		rs, err := st.CreateRelation(setup, def)
		if err != nil {
			t.Fatal(err)
		}
		tp := tupleOf([][]string{
			{fmt.Sprintf("c%d", i)}, {fmt.Sprintf("b%d", i)}, {fmt.Sprintf("s%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	base := fs.snapshot()

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	order := testDef(t).Order
	relOf := func(name string) *RelStore {
		rs, ok := st2.Rel(name)
		if !ok {
			t.Fatalf("relation %s missing", name)
		}
		return rs
	}
	snap := func() map[string]*core.Relation {
		out := map[string]*core.Relation{}
		for _, name := range names {
			rel, err := relOf(name).Load()
			if err != nil {
				t.Fatal(err)
			}
			out[name] = rel
		}
		return out
	}
	s0 := snap()

	// gate the first WAL fsync (T1's) until told to proceed
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	fs.syncHook = func(string) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}

	fs.startRecording()
	errs := make(chan error, 3)
	t1 := st2.Begin()
	if err := relOf("R1").Insert(t1, tupleOf([][]string{{"x1"}, {"y1"}, {"z1"}}, order)); err != nil {
		t.Fatal(err)
	}
	go func() { errs <- st2.Commit(t1) }()
	<-entered // T1's leader is inside its fsync, holding the commit lock

	t2 := st2.Begin()
	if err := relOf("R2").Insert(t2, tupleOf([][]string{{"x2"}, {"y2"}, {"z2"}}, order)); err != nil {
		t.Fatal(err)
	}
	go func() { errs <- st2.Commit(t2) }()
	waitPending := func(n int) {
		t.Helper()
		for i := 0; i < 10000; i++ {
			if st2.bp.PendingCommits() == n {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatalf("commit queue never reached %d", n)
	}
	waitPending(1)
	t3 := st2.Begin()
	if err := relOf("R3").Insert(t3, tupleOf([][]string{{"x3"}, {"y3"}, {"z3"}}, order)); err != nil {
		t.Fatal(err)
	}
	go func() { errs <- st2.Commit(t3) }()
	waitPending(2)
	close(gate) // release T1; the next leader drains T2+T3 as one group
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	fs.syncHook = nil
	journal := fs.stopRecording()

	ws := st2.WALStats()
	if ws.Batches != 3 || ws.Fsyncs != 2 || ws.MaxGroupBatches < 2 {
		t.Fatalf("commit did not merge: %d batches / %d fsyncs / max group %d",
			ws.Batches, ws.Fsyncs, ws.MaxGroupBatches)
	}

	// expected recovery states: the chain of whole-transaction prefixes
	s1 := snap() // T1+T2+T3 applied in memory — derive intermediate states below
	st2.Discard()
	// s0 = base; sA = +T1; sB = +T1+T2; s1 = +T1+T2+T3
	add := func(m map[string]*core.Relation, name, c, b, s string) map[string]*core.Relation {
		out := map[string]*core.Relation{}
		for k, v := range m {
			out[k] = v
		}
		rel := core.NewRelation(out[name].Schema())
		for i := 0; i < out[name].Len(); i++ {
			rel.Add(out[name].Tuple(i))
		}
		rel.Add(tupleOf([][]string{{c}, {b}, {s}}, order))
		out[name] = rel
		return out
	}
	sA := add(s0, "R1", "x1", "y1", "z1")
	sB := add(sA, "R2", "x2", "y2", "z2")
	sC := add(sB, "R3", "x3", "y3", "z3")
	for _, name := range names {
		if !sC[name].Equal(s1[name]) {
			t.Fatalf("derived final state of %s diverges from live state", name)
		}
	}
	chain := []map[string]*core.Relation{s0, sA, sB, sC}

	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	t.Logf("merged-commit journal: %d ops, %d bytes", len(journal), total)
	matches := func(got, want map[string]*core.Relation) bool {
		for _, name := range names {
			if !got[name].Equal(want[name]) {
				return false
			}
		}
		return true
	}
	forEachOffset(t, total, func(k int64, reordered bool) error {
		label := fmt.Sprintf("merged k=%d reordered=%v", k, reordered)
		got, err := loadStateErr(crashState(base, journal, k, reordered), label, names...)
		if err != nil {
			return err
		}
		for _, want := range chain {
			if matches(got, want) {
				return nil
			}
		}
		return fmt.Errorf("%s: recovered state is not a whole-transaction prefix", label)
	})
}

// TestFailedCommitDoesNotWedge: a commit whose fsync fails must be
// recoverable — Rollback (plus ForgetRelation for a create: the
// engine's failed-create path) releases the failed transaction's page
// ownership, so later transactions (which claim the same catalog and
// free-list pages) proceed instead of blocking forever, and the
// store's in-memory state matches the durable state.
func TestFailedCommitDoesNotWedge(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1}
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Insert(txn, tupleOf([][]string{{"c1"}, {"b1"}, {"s1"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}

	// failed CREATE: commit error, abort, then the same create succeeds
	fs.mu.Lock()
	fs.failSyncs = 1
	fs.mu.Unlock()
	def2 := def
	def2.Name = "R2"
	ctxn := st.Begin()
	if _, err := st.CreateRelation(ctxn, def2); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(ctxn); err == nil {
		t.Fatal("injected sync failure did not surface")
	}
	if err := st.Rollback(ctxn); err != nil {
		t.Fatal(err)
	}
	st.ForgetRelation(def2.Name)
	done := make(chan error, 1)
	go func() {
		retry := st.Begin()
		rs2, err := st.CreateRelation(retry, def2)
		if err == nil {
			err = rs2.Insert(retry, tupleOf([][]string{{"c2"}, {"b2"}, {"s2"}}, def.Order))
		}
		if err == nil {
			err = st.Commit(retry)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("create after rolled-back create failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("create after rolled-back create blocked — catalog page ownership wedged")
	}

	// failed DROP: commit error, rollback, relation stays fully usable
	fs.mu.Lock()
	fs.failSyncs = 1
	fs.mu.Unlock()
	dtxn := st.Begin()
	if err := st.DropRelation(dtxn, def.Name); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(dtxn); err == nil {
		t.Fatal("injected sync failure did not surface on drop")
	}
	if err := st.Rollback(dtxn); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Rel(def.Name); !ok {
		t.Fatal("relation vanished after rolled-back drop")
	}
	wtxn := st.Begin()
	if err := rs.Insert(wtxn, tupleOf([][]string{{"c3"}, {"b3"}, {"s3"}}, def.Order)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(wtxn); err != nil {
		t.Fatalf("write after rolled-back drop failed: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// durable state: R1 (2 tuples) and R2 (1 tuple) both present
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r1, ok := st2.Rel("R1")
	if !ok || countTuples(t, r1.Scan) != 2 {
		t.Fatalf("R1 wrong after reopen: ok=%v", ok)
	}
	r2, ok := st2.Rel("R2")
	if !ok || countTuples(t, r2.Scan) != 1 {
		t.Fatalf("R2 wrong after reopen: ok=%v", ok)
	}
}

// TestCrashRecoveryIndexSplit is the index-page acceptance harness: a
// transaction inserts enough tuples to SPLIT B+tree nodes (forced via
// the fan-out knob so the journal stays small), so the injected crashes
// land inside index-page WAL images, the new root and the redistributed
// leaf halves. Recovery at every byte offset must yield
// a checksum-valid file whose durable index passes the heap-scan oracle
// (loadStateErr checks it) at a transaction boundary.
func TestCrashRecoveryIndexSplit(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 16, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1}
	def := testDef(t)

	// base: a handful of committed tuples, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	rs, err := st.CreateRelation(setup, def)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("c%d", i)}, {fmt.Sprintf("b%d", i)}, {fmt.Sprintf("s%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	base := fs.snapshot()

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	// cap node fan-out so the next few inserts overflow and split; the
	// durable structure stays self-describing, so the recovery opens
	// below need no knob
	rs2.Shard(0).SetRangeIndexMaxEntries(2)
	tree := rs2.shards[0].rangeD
	_, leaves, err := tree.PageCounts()
	if err != nil {
		t.Fatal(err)
	}
	pre, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}

	fs.startRecording()
	txn := st2.Begin()
	for i := 0; i < 5; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("xc%d", i)}, {fmt.Sprintf("xb%d", i)}, {fmt.Sprintf("xs%d", i)},
		}, def.Order)
		if err := rs2.Insert(txn, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Commit(txn); err != nil {
		t.Fatal(err)
	}
	journal := fs.stopRecording()
	// (a root split, which is what grows the height, splits a leaf first)
	if _, after, err := tree.PageCounts(); err != nil || after <= leaves {
		t.Fatalf("journaled transaction split no leaf (%d→%d leaves, %v); harness is vacuous", leaves, after, err)
	}
	post, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	st2.Discard() // crash: no checkpoint, no close-time flush
	if pre.Equal(post) {
		t.Fatal("transaction changed nothing")
	}

	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	if total < 3*storage.PageSize {
		t.Fatalf("journal too small (%d bytes) to tear split pages", total)
	}
	t.Logf("index-split journal: %d ops, %d bytes", len(journal), total)
	forEachOffset(t, total, func(k int64, reordered bool) error {
		label := fmt.Sprintf("split k=%d reordered=%v", k, reordered)
		state, err := loadStateErr(crashState(base, journal, k, reordered), label, "R1")
		if err != nil {
			return err
		}
		if got := state["R1"]; !got.Equal(pre) && !got.Equal(post) {
			return fmt.Errorf("%s: recovered state is not a transaction boundary", label)
		}
		return nil
	})
}

// TestCrashRecoveryDeltaAcrossCheckpoint sweeps the delta-record era:
// the journal holds four statements whose WAL records mix first-touch
// full images and delta records, with an explicit checkpoint in the
// middle (so the sweep crosses a log truncation and the first-touch
// rule restarts). Every byte offset in both replay modes must recover
// a statement-boundary state — a torn delta tail must roll back to the
// previous boundary, and a torn data page must be repairable from the
// era's first-touch full image even when the only log records since
// are deltas.
func TestCrashRecoveryDeltaAcrossCheckpoint(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1}
	def := testDef(t)

	// base: a multi-page database, cleanly closed
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	rs, err := st.CreateRelation(setup, def)
	if err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(9, workload.EnrollmentParams{
		Students: 12, CoursePool: 8, ClubPool: 4, SemesterPool: 3,
		CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	for i := 0; i < canon.Len(); i++ {
		if err := rs.Insert(setup, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	pad := make([]byte, 700)
	for i := range pad {
		pad[i] = 'q'
	}
	for i := 0; i < 7; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("%s-%d", pad, i)}, {"padclub"}, {fmt.Sprintf("pads%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	base := fs.snapshot()

	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	snap := func() *core.Relation {
		t.Helper()
		rel, err := rs2.Load()
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	states := []*core.Relation{snap()}
	stmt := func(add, del [][]string) {
		t.Helper()
		txn := st2.Begin()
		if add != nil {
			if err := rs2.Insert(txn, tupleOf(add, def.Order)); err != nil {
				t.Fatal(err)
			}
		}
		if del != nil {
			if err := rs2.Remove(txn, tupleOf(del, def.Order)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st2.Commit(txn); err != nil {
			t.Fatal(err)
		}
		states = append(states, snap())
	}

	fs.startRecording()
	// era 1: statement A first-touches its pages after recovery's Reset
	// (full images), statement B dirties the same tail pages again
	// (deltas)
	stmt([][]string{{"da1"}, {"db1"}, {"ds1"}}, nil)
	stmt([][]string{{"da2"}, {"db2"}, {"ds2"}}, nil)
	preCkpt := st2.WALStats()
	if preCkpt.DeltaPages == 0 {
		t.Fatalf("statement B logged no delta records (full=%d delta=%d); sweep is vacuous",
			preCkpt.FullPages, preCkpt.DeltaPages)
	}
	// checkpoint: log truncates, the first-touch rule starts over
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	// era 2: statement C first-touches again (full images), statement D
	// deltas the same pages
	stmt([][]string{{"da3"}, {"db3"}, {"ds3"}}, nil)
	stmt(nil, [][]string{{"da3"}, {"db3"}, {"ds3"}})
	post := st2.WALStats()
	if post.FullPages <= preCkpt.FullPages {
		t.Fatal("no first-touch full images after the checkpoint")
	}
	if post.DeltaPages <= preCkpt.DeltaPages {
		t.Fatal("no delta records after the checkpoint")
	}
	journal := fs.stopRecording()
	st2.Discard() // crash

	for i := 1; i < len(states); i++ {
		if states[i].Equal(states[i-1]) {
			t.Fatalf("statement %d changed nothing", i)
		}
	}
	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	if total < 2*storage.PageSize {
		t.Fatalf("journal too small (%d bytes) to exercise torn pages", total)
	}
	t.Logf("delta-era journal: %d ops, %d bytes (full=%d delta=%d pages logged)",
		len(journal), total, post.FullPages, post.DeltaPages)
	forEachOffset(t, total, func(k int64, reordered bool) error {
		label := fmt.Sprintf("delta k=%d reordered=%v", k, reordered)
		state, err := loadStateErr(crashState(base, journal, k, reordered), label, "R1")
		if err != nil {
			return err
		}
		got := state["R1"]
		for _, s := range states {
			if got.Equal(s) {
				return nil
			}
		}
		return fmt.Errorf("%s: recovered state is not a statement boundary", label)
	})
}

// TestCrashRecoveryDoubleReplay proves redo is idempotent end to end:
// recovery itself is crashed at every sampled offset of ITS journal —
// including mid-redo-write, between the data sync and the log
// truncation, and inside the truncation — and the second recovery must
// land on exactly the state an uninterrupted single replay produces.
// Before page LSNs this held only because records were whole-page
// images; with delta records it holds because the LSN gate skips pages
// the first replay already published, so deltas never apply twice.
func TestCrashRecoveryDoubleReplay(t *testing.T) {
	fs := newMemFS()
	opts := Options{PoolPages: 8, OpenFile: fs.open, RemoveFile: fs.remove, CheckpointBytes: -1}
	def := testDef(t)

	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := st.Begin()
	rs, err := st.CreateRelation(setup, def)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 700)
	for i := range pad {
		pad[i] = 'r'
	}
	for i := 0; i < 6; i++ {
		tp := tupleOf([][]string{
			{fmt.Sprintf("%s-%d", pad, i)}, {"padclub"}, {fmt.Sprintf("pads%d", i)},
		}, def.Order)
		if err := rs.Insert(setup, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	base := fs.snapshot()

	// journal two statements (full images + deltas) and crash
	st2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := st2.Rel(def.Name)
	fs.startRecording()
	for i := 0; i < 2; i++ {
		txn := st2.Begin()
		if err := rs2.Insert(txn, tupleOf([][]string{
			{fmt.Sprintf("yc%d", i)}, {fmt.Sprintf("yb%d", i)}, {fmt.Sprintf("ys%d", i)},
		}, def.Order)); err != nil {
			t.Fatal(err)
		}
		if err := st2.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	journal := fs.stopRecording()
	st2.Discard() // crash #1

	total := int64(0)
	for _, op := range journal {
		total += op.cost()
	}
	t.Logf("workload journal: %d bytes", total)

	// outer crash points spread across the workload journal
	outer := []int64{0, total / 4, total / 2, 3 * total / 4, total}
	for _, k := range outer {
		for _, reordered := range []bool{false, true} {
			k, reordered := k, reordered
			t.Run(fmt.Sprintf("k=%d_reordered=%v", k, reordered), func(t *testing.T) {
				t.Parallel()
				crashed := crashState(base, journal, k, reordered)

				// the oracle: one uninterrupted replay of the crashed state
				want := loadState(t, crashed, "single-replay", "R1")["R1"]

				// replay again, recording recovery's own writes; crash #2
				// lands at sampled offsets of that recovery journal
				rfs := &memFS{files: crashState(base, journal, k, reordered)}
				rbase := rfs.snapshot()
				rfs.startRecording()
				rst, err := Open("db", Options{PoolPages: 8, OpenFile: rfs.open, RemoveFile: rfs.remove, CheckpointBytes: -1})
				if err != nil {
					t.Fatalf("recording replay failed: %v", err)
				}
				rjournal := rfs.stopRecording()
				rst.Discard()
				rtotal := int64(0)
				for _, op := range rjournal {
					rtotal += op.cost()
				}

				// every op boundary of the recovery journal, plus strided
				// mid-op offsets to cut redo writes and the truncation
				// mid-way
				offsets := map[int64]bool{0: true, rtotal: true}
				at := int64(0)
				for _, op := range rjournal {
					at += op.cost()
					offsets[at] = true
				}
				for j := int64(0); j <= rtotal; j += 211 {
					offsets[j] = true
				}
				for j := range offsets {
					for _, rmode := range []bool{false, true} {
						label := fmt.Sprintf("replay-crash j=%d reordered=%v", j, rmode)
						got, err := loadStateErr(crashState(rbase, rjournal, j, rmode), label, "R1")
						if err != nil {
							t.Fatal(err)
						}
						if !got["R1"].Equal(want) {
							t.Fatalf("%s: double replay diverged from single replay", label)
						}
					}
				}
			})
		}
	}
}
