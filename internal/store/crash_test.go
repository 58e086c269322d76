package store

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildDB writes a database with enough tuples to span several pages
// and returns its path and file size.
func buildDB(t *testing.T) (string, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(9, workload.EnrollmentParams{
		Students: 120, CoursePool: 30, ClubPool: 8, SemesterPool: 4,
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
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 3*storage.PageSize {
		t.Fatalf("database too small for truncation tests: %d bytes", fi.Size())
	}
	return path, fi.Size()
}

// reopen attempts to open, fully scan, and index-verify the database,
// converting any panic into a test failure. It returns the first error
// encountered. The index verification matters: the fast open path
// reads only catalog and index directories, so damage in a heap or
// index page must surface through the scan or the oracle check
// instead.
func reopen(t *testing.T, path string) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reopen panicked: %v", r)
		}
	}()
	st, e := Open(path, Options{PoolPages: 4})
	if e != nil {
		return e
	}
	defer st.Close()
	for _, name := range st.Relations() {
		rs, _ := st.Rel(name)
		if _, e := rs.LoadCtx(context.Background(), nil); e != nil {
			return e
		}
	}
	return st.VerifyIndexes()
}

// TestReopenTruncatedTail covers the torn-tail crash family: a file cut
// mid-page and a file cut at a page boundary (whole tail pages lost)
// must both reopen with a clean error — never a panic.
func TestReopenTruncatedTail(t *testing.T) {
	path, size := buildDB(t)

	// mid-page truncation: not a multiple of the page size
	for _, cut := range []int64{1, storage.PageSize + 17, size - 100} {
		if cut >= size {
			continue
		}
		p2 := filepath.Join(t.TempDir(), "torn.nfrs")
		copyTruncated(t, path, p2, cut)
		if err := reopen(t, p2); err == nil {
			t.Errorf("truncation to %d bytes reopened without error", cut)
		}
	}

	// whole-page truncation: chains now reference unallocated pages
	for pages := int64(1); pages*storage.PageSize < size; pages++ {
		p2 := filepath.Join(t.TempDir(), "cut.nfrs")
		copyTruncated(t, path, p2, pages*storage.PageSize)
		if err := reopen(t, p2); err == nil {
			t.Errorf("truncation to %d whole pages reopened without error", pages)
		}
	}
}

// TestReopenTornPage covers garbage in the middle of the file: zeroed
// and random-byte pages must produce clean errors, not panics.
func TestReopenTornPage(t *testing.T) {
	path, size := buildDB(t)
	pages := size / storage.PageSize
	for page := int64(0); page < pages; page++ {
		for variant, fill := range map[string]byte{"zeroed": 0x00, "ones": 0xFF, "garbage": 0xA7} {
			p2 := filepath.Join(t.TempDir(), "torn.nfrs")
			copyFile(t, path, p2)
			f, err := os.OpenFile(p2, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			junk := make([]byte, storage.PageSize)
			for i := range junk {
				junk[i] = fill
			}
			if _, err := f.WriteAt(junk, page*storage.PageSize); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if err := reopen(t, p2); err == nil {
				t.Errorf("%s page %d reopened without error", variant, page)
			}
		}
	}
}

// TestReopenBitFlippedRecords flips single bytes inside the first data
// page's record area; reopen must either succeed (the flip landed in
// dead space or produced a still-valid record) or fail cleanly.
func TestReopenBitFlippedRecords(t *testing.T) {
	path, _ := buildDB(t)
	for off := int64(0); off < storage.PageSize; off += 37 {
		p2 := filepath.Join(t.TempDir(), "flip.nfrs")
		copyFile(t, path, p2)
		f, err := os.OpenFile(p2, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		target := storage.PageSize + off // page 2: first relation data page
		if _, err := f.ReadAt(buf, target); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xFF
		if _, err := f.WriteAt(buf, target); err != nil {
			t.Fatal(err)
		}
		f.Close()
		// any outcome but a panic is acceptable
		_ = reopen(t, p2)
	}
}

// TestReopenChainCycle corrupts a page's next pointer to loop back to
// an earlier page: reopen must fail with a cycle error, not hang.
func TestReopenChainCycle(t *testing.T) {
	path, size := buildDB(t)
	pages := size / storage.PageSize
	if pages < 3 {
		t.Skip("need ≥3 pages")
	}
	// point the LAST page's next field (bytes 4..8 of the page) back at
	// page 2, creating a loop in the relation's heap chain
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{2, 0, 0, 0}, (pages-1)*storage.PageSize+4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	done := make(chan error, 1)
	go func() { done <- reopenQuiet(path) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cyclic chain reopened without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reopen of cyclic chain hung")
	}
}

// reopenQuiet is reopen without *testing.T (safe to call off the test
// goroutine); cycles would hang rather than panic, so no recover here.
func reopenQuiet(path string) error {
	st, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, name := range st.Relations() {
		rs, _ := st.Rel(name)
		if _, err := rs.LoadCtx(context.Background(), nil); err != nil {
			return err
		}
	}
	return st.VerifyIndexes()
}

// TestReopenDuplicateRecord: a heap holding the same encoded tuple
// twice is corruption (deletes would leave stale copies) and must be
// rejected on open.
func TestReopenDuplicateRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	tp := tupleOf([][]string{{"c1"}, {"b1"}, {"s1"}}, def.Order)
	// bypass the indexes: write the same encoded tuple twice at the
	// heap level
	if err := rs.Insert(txn, tp); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.shards[0].heap.Insert(txn, encoding.EncodeTuple(tp)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The fast open path reads no heap page, so the duplicate surfaces
	// through the index oracle (one index entry, two heap records), not
	// at Open itself.
	if err := reopen(t, path); err == nil {
		t.Error("duplicate record passed reopen + index verification")
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyTruncated(t *testing.T, src, dst string, n int64) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n > int64(len(b)) {
		n = int64(len(b))
	}
	if err := os.WriteFile(dst, b[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}
