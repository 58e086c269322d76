package store

import (
	"context"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/crashfs"
	"repro/internal/workload"
)

// TestRecoveryReport: Open says what recovery did. A crash image whose
// data file already holds every logged page (commits write through) is
// all LSN-gate skips; a data page torn afterwards is written back from
// the log; bytes past the last commit record are counted as discarded;
// and a cleanly closed file reports nothing.
func TestRecoveryReport(t *testing.T) {
	fs := crashfs.New(nil)
	opts := Options{PoolPages: 16, OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1}
	st, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.RecoveryReport(); r != (RecoveryReport{}) {
		t.Fatalf("report of a fresh file = %+v", r)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(3, workload.EnrollmentParams{
		Students: 12, CoursePool: 10, ClubPool: 4, SemesterPool: 3, CoursesPerStudent: 3, ClubsPerStudent: 2,
	})
	canon, _ := e.R1.Canonical(def.Order)
	for i := 0; i < canon.Len(); i++ {
		txn := st.Begin()
		if err := rs.Insert(txn, canon.Tuple(i)); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	batches := 1 + canon.Len() // the create and one insert each; initFile checkpointed its own
	crash := crashfs.New(fs.Snapshot())
	st.Discard()

	reopen := func(files map[string][]byte) RecoveryReport {
		t.Helper()
		rfs := crashfs.New(files)
		o := opts
		o.OpenFile, o.RemoveFile = rfs.Open, rfs.Remove
		st, err := Open("db", o)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Discard()
		if got, err := st.rels["R1"].LoadCtx(context.Background(), nil); err != nil || !got.Equal(canon) {
			t.Fatalf("recovered relation differs from what was committed (%v)", err)
		}
		return st.RecoveryReport()
	}
	r := reopen(crash.Snapshot())
	if !r.Sidecar || r.Log.RecoveredBatches != batches || r.PagesWritten != 0 || r.PagesSkipped == 0 || r.Log.TornTailBytes != 0 || r.Log.RedoElapsed <= 0 {
		t.Fatalf("report of the crash image = %+v, want %d batches and only skipped pages", r, batches)
	}
	logged := r.PagesSkipped

	// tear the last data page (the heap's or an index's: every page of
	// this file is in the log) and leave half a record behind the log
	files := crash.Snapshot()
	last := len(files["db"]) - storage.PageSize
	for i := 100; i < 200; i++ {
		files["db"][last+i] ^= 0xff
	}
	files["db.wal"] = append(files["db.wal"], 'D', 1, 0, 0, 0, 9, 9)
	r = reopen(files)
	if r.Log.RecoveredBatches != batches || r.PagesWritten != 1 || r.PagesSkipped != logged-1 || r.Log.TornTailBytes != 7 {
		t.Fatalf("report of the torn image = %+v, want 1 page written, %d skipped, 7 torn bytes", r, logged-1)
	}
}
