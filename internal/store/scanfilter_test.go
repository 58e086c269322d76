package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/store"
)

// TestFilteredScanChecksSkippedRecords: a heap scan with record tests
// rejects a record without decoding it, but still checks it. One stored
// record gets its Course atoms out of order, under a valid page
// checksum, so only the record check can see it; a SELECT whose filter
// rejects that record must fail with ErrCorrupt on a Database and
// inside a transaction, as the plain scan (SHOW) does.
func TestFilteredScanChecksSkippedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skip.nfrs")
	db, err := engine.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := query.NewSessionOn(db)
	const sel = `SELECT * FROM R1 WHERE Course CONTAINS nosuch`
	for _, stmt := range []string{
		`CREATE R1 (Student, Course, Club) ORDER (Course, Club, Student)`,
		`INSERT INTO R1 VALUES (s1, courseA, b1), (s1, courseB, b1), (s2, courseC, b2)`,
		sel,
	} {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := s.Exec("EXPLAIN " + sel)
	if err != nil || !strings.Contains(res.Message, `filter: Course contains "nosuch"`) {
		t.Fatalf("the SELECT is not filtered (%v):\n%s", err, res.Message)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set := []byte("\x02\x04\x07courseA\x04\x07courseB")
	if n := bytes.Count(file, set); n != 1 {
		t.Fatalf("the file holds the Course set {courseA, courseB} %d times, want once", n)
	}
	at := bytes.Index(file, set)
	copy(file[at:], "\x02\x04\x07courseB\x04\x07courseA")
	var pg storage.Page
	start := at / storage.PageSize * storage.PageSize
	copy(pg[:], file[start:])
	pg.StampChecksum()
	copy(file[start:], pg[:])
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = engine.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s = query.NewSessionOn(db)
	for _, stmt := range []string{sel, "SHOW R1", "BEGIN", sel, "ROLLBACK", "BEGIN", "SHOW R1", "ROLLBACK"} {
		_, err := s.Exec(stmt)
		switch {
		case stmt == "BEGIN" || stmt == "ROLLBACK":
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		case !errors.Is(err, store.ErrCorrupt):
			t.Errorf("%s (in a transaction: %v): %v, want ErrCorrupt", stmt, s.InTx(), err)
		}
	}
}
