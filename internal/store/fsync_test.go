package store

import (
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/crashfs"
)

// fileOps is what one file was asked to do through a countingFS.
type fileOps struct{ syncs, truncates, writes int }

// countingFS wraps an OpenFileFunc and counts, per file name, the Syncs,
// Truncates and WriteAts made through the files it opens.
type countingFS struct {
	open storage.OpenFileFunc
	mu   sync.Mutex
	ops  map[string]fileOps
}

func countOps(open storage.OpenFileFunc) *countingFS {
	return &countingFS{open: open, ops: map[string]fileOps{}}
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
	return f.File.Truncate(size)
}

func (f countedFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.count(f.name, func(o *fileOps) { o.writes++ })
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
