package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/crashfs"
)

// fileOps is what one file was asked to do through a countingFS.
type fileOps struct{ syncs, truncates, writes int }

// countingFS wraps an OpenFileFunc and counts, per file name, the Syncs,
// Truncates and WriteAts made through the files it opens, and keeps
// every size a WriteAt or Truncate left a file at that differs from the
// one before.
type countingFS struct {
	open  storage.OpenFileFunc
	mu    sync.Mutex
	ops   map[string]fileOps
	sizes map[string][]int64
}

func countOps(open storage.OpenFileFunc) *countingFS {
	return &countingFS{open: open, ops: map[string]fileOps{}, sizes: map[string][]int64{}}
}

func (c *countingFS) Open(name string, create bool) (storage.File, error) {
	f, err := c.open(name, create)
	if err != nil {
		return nil, err
	}
	return countedFile{f, c, name}, nil
}

// take returns the counts since the last take and starts over.
func (c *countingFS) take() map[string]fileOps {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.ops
	c.ops = map[string]fileOps{}
	return out
}

func (c *countingFS) count(name string, op func(*fileOps)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.ops[name]
	op(&o)
	c.ops[name] = o
}

// noteSize records f's size if it changed.
func (c *countingFS) noteSize(f countedFile) {
	n, err := f.File.Size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sizes[f.name]; err == nil && (len(s) == 0 || s[len(s)-1] != n) {
		c.sizes[f.name] = append(s, n)
	}
}

// sizeChanges returns how many sizes the named file has been left at.
func (c *countingFS) sizeChanges(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sizes[name])
}

type countedFile struct {
	storage.File
	c    *countingFS
	name string
}

func (f countedFile) Sync() error {
	f.c.count(f.name, func(o *fileOps) { o.syncs++ })
	return f.File.Sync()
}

func (f countedFile) Truncate(size int64) error {
	f.c.count(f.name, func(o *fileOps) { o.truncates++ })
	defer f.c.noteSize(f)
	return f.File.Truncate(size)
}

func (f countedFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.count(f.name, func(o *fileOps) { o.writes++ })
	defer f.c.noteSize(f)
	return f.File.WriteAt(p, off)
}

// TestReopenFsyncBudget holds the fsyncs and truncates of the reopen
// cycle: the log is reset only by a checkpoint that keeps it, so
// recovery leaves the replayed log as it is and Close deletes the log
// instead of rewriting it first.
//
//   - A clean Close after one commit: the clock seal's commit fsyncs the
//     log, then the data file is fsynced; nothing is truncated.
//   - Open of a crash image whose log has no torn tail writes, syncs and
//     truncates nothing but the redo writes into the data file.
//   - Close of that recovered store costs what a clean Close does.
func TestReopenFsyncBudget(t *testing.T) {
	fs := crashfs.New(nil)
	cfs := countOps(fs.Open)
	opts := Options{PoolPages: 8, OpenFile: cfs.Open, RemoveFile: fs.Remove}
	def := closedPaddedDB(t, opts, 'f', 4)
	want := func(phase string, got map[string]fileOps, log, data fileOps) {
		t.Helper()
		if got["db.wal"] != log || got["db"].syncs != data.syncs || got["db"].truncates != data.truncates {
			t.Errorf("%s: log %+v, data file %+v; want log %+v, data file syncs=%d truncates=%d",
				phase, got["db.wal"], got["db"], log, data.syncs, data.truncates)
		}
	}

	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := st.Rel(def.Name)
	insertStmt(t, st, rs, "budget", 0)
	cfs.take()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// the seal's one log write, its fsync; one data fsync
	want("clean Close after one commit", cfs.take(), fileOps{syncs: 1, writes: 1}, fileOps{syncs: 1})
	if _, ok := fs.Snapshot()["db.wal"]; ok {
		t.Fatal("clean close left a WAL sidecar")
	}

	// a crash image: three committed statements, no checkpoint, no close
	st, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ = st.Rel(def.Name)
	for i := 1; i <= 3; i++ {
		insertStmt(t, st, rs, "budget", i)
	}
	image := fs.Snapshot()
	st.Discard()

	rfs := crashfs.New(image)
	rcfs := countOps(rfs.Open)
	ropts := Options{PoolPages: 8, OpenFile: rcfs.Open, RemoveFile: rfs.Remove}
	rst, err := Open("db", ropts)
	if err != nil {
		t.Fatal(err)
	}
	if r := rst.RecoveryReport(); r.Log.RecoveredBatches != 3 || r.Log.TornTailBytes != 0 {
		t.Fatalf("recovery found %d batches and %d torn bytes, want 3 and 0", r.Log.RecoveredBatches, r.Log.TornTailBytes)
	}
	want("Open of a crash image", rcfs.take(), fileOps{}, fileOps{})
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
	want("Close of the recovered store", rcfs.take(), fileOps{syncs: 1, writes: 1}, fileOps{syncs: 1})
	if _, ok := rfs.Snapshot()["db.wal"]; ok {
		t.Fatal("closing the recovered store left a WAL sidecar")
	}
}

// TestRecycledLogKeepsItsSize holds the recycled log's mechanism:
// one-row commits under a 512 KiB checkpoint threshold run through
// three checkpoints. Once the log first holds 256 KiB, its file changes
// size at most once per MiB appended (the append that extends it
// writes a MiB of zeros after its records); the checkpoints truncate it
// never and sync it once each, so every sync of the log is a commit's
// or a checkpoint's.
func TestRecycledLogKeepsItsSize(t *testing.T) {
	fs := crashfs.New(nil)
	cfs := countOps(fs.Open)
	opts := Options{PoolPages: 8, OpenFile: cfs.Open, RemoveFile: fs.Remove, CheckpointBytes: 512 << 10}
	def := closedPaddedDB(t, opts, 'k', 4)
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Discard()
	rs, _ := st.Rel(def.Name)
	cfs.take()
	ws0 := st.WALStats()
	var changesAt, loggedAt int // at the first commit that left 256 KiB logged
	checkpoints := 0
	for i := 0; checkpoints < 3; i++ {
		if i == 100000 {
			t.Fatalf("no third checkpoint after %d commits", i)
		}
		tp := tupleOf([][]string{{fmt.Sprintf("kc%d", i/2)}, {"kb"}, {fmt.Sprintf("ks%d", i/2)}}, def.Order)
		txn := st.Begin()
		write := rs.Insert
		if i%2 == 1 {
			write = rs.Remove
		}
		if err := write(txn, tp); err != nil {
			t.Fatal(err)
		}
		before := st.wal.Size()
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if st.wal.Size() < before {
			checkpoints++
		}
		if loggedAt == 0 && st.wal.Size() >= 256<<10 {
			changesAt, loggedAt = cfs.sizeChanges("db.wal"), st.WALStats().BytesLogged
		}
	}
	ws := st.WALStats()
	changes := cfs.sizeChanges("db.wal") - changesAt
	appended := ws.BytesLogged - loggedAt
	if changes > 1+appended>>20 {
		t.Errorf("past 256 KiB the log changed size %d times over %d bytes appended", changes, appended)
	}
	log := cfs.take()["db.wal"]
	commits, ckpt := ws.Fsyncs-ws0.Fsyncs, ws.CheckpointFsyncs-ws0.CheckpointFsyncs
	if log.truncates != 0 || ckpt != checkpoints || log.syncs != commits+checkpoints {
		t.Errorf("%d checkpoints over %d commits: the log was truncated %d times and synced %d times (%d by checkpoints); want 0 and %d (%d)",
			checkpoints, commits, log.truncates, log.syncs, ckpt, commits+checkpoints, checkpoints)
	}
	t.Logf("%d commits, %d checkpoints, %d bytes logged; the log file took %d sizes, %d past 256 KiB",
		commits, checkpoints, ws.BytesLogged-ws0.BytesLogged, cfs.sizeChanges("db.wal"), changes)
}
