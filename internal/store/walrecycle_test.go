package store

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage/crashfs"
)

// logPrealloc is the log size from which an append past the file's end
// writes a megabyte of zeros after its records (storage's
// walPreallocFrom).
const logPrealloc = 256 << 10

// walFileSize is the length of the log file in fs, 0 when it is absent.
func walFileSize(fs *crashfs.FS) int64 {
	f, err := fs.Open("db.wal", false)
	if err != nil {
		return 0
	}
	n, _ := f.Size()
	return n
}

// TestCrashRecoveryRecycledLog sweeps the log's two new states: space
// an extending append allocated, and a second generation written over
// the first after a checkpoint. Fat statements fill the log past the
// preallocation threshold until one append writes a megabyte of zeros
// after its records. The journal then holds a statement that commits
// into those zeros, a checkpoint (which rewinds the log and keeps the
// file), and two short statements over the retired generation. Every
// distinct crash state must reopen with its referenced pages valid and
// its relation equal to the model: the state after every statement
// durable before the cut, or after the one in flight.
//
// The extending append itself is not in the journal: the sweep
// materialises every 64th cut on its own, and a megabyte of zeros is
// 32 768 such images of a 1.3 MiB log (a minute of reopening on two
// cores). TestWALTornExtension tears it instead.
func TestCrashRecoveryRecycledLog(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 8, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	def := closedPaddedDB(t, opts, 'g', 6)
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := st.Rel(def.Name)
	// fat statements of 40 tuples of 700 bytes fill the log
	fat := strings.Repeat("f", 700)
	for i := 0; walFileSize(fs) == st.wal.Size(); i++ {
		if i == 12 {
			t.Fatalf("no append extended the log: %d bytes logged", st.wal.Size())
		}
		txn := st.Begin()
		for k := 0; k < 40; k++ {
			tp := tupleOf([][]string{{fmt.Sprintf("%s-%d-%d", fat, i, k)}, {"fillclub"}, {fmt.Sprintf("fill%d", i)}}, def.Order)
			if err := rs.Insert(txn, tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if st.wal.Size() < logPrealloc || walFileSize(fs)-st.wal.Size() < 1<<20 {
		t.Fatalf("the extension: log %d bytes, file %d", st.wal.Size(), walFileSize(fs))
	}

	pre, err := rs.LoadCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	states := []*core.Relation{pre}
	var marks []int64 // journal ends where each statement was durable
	base := fs.Record()
	step := func(tag string) {
		t.Helper()
		states = append(states, insertStmt(t, st, rs, tag, len(states)))
		marks = append(marks, fs.Journal().End())
	}
	allocated := walFileSize(fs)
	step("zeros")
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	step("gen2-")
	step("gen2-")
	if walFileSize(fs) != allocated || st.wal.Size() > 16<<10 {
		t.Fatalf("after the checkpoint: log %d bytes, file %d; want a short log in a file of %d",
			st.wal.Size(), walFileSize(fs), allocated)
	}
	journal := fs.Journal()
	st.Discard() // crash
	t.Logf("recycled-log journal: %d ops, %d bytes, %d statements", len(journal), journal.End(), len(marks))

	sweep(t, base, journal, func(c crashfs.Cut, files map[string][]byte) error {
		label := "recycled " + c.String()
		got, err := loadStateErr(files, label, def.Name)
		if err != nil {
			return err
		}
		durable := 0
		for durable < len(marks) && marks[durable] <= c.K {
			durable++
		}
		for i := durable; i < len(states) && i <= durable+1; i++ {
			if got[def.Name].Equal(states[i]) {
				return nil
			}
		}
		return fmt.Errorf("%s: recovered state is not the model after statement %d or %d", label, durable, durable+1)
	})
}
