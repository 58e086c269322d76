package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildReopenDB creates a database whose single relation spans many
// heap pages, returning its path, canonical content, and heap page
// count.
func buildReopenDB(t *testing.T) (string, *core.Relation, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reopen.nfrs")
	st, err := Open(path, Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	e := workload.GenEnrollment(11, workload.EnrollmentParams{
		Students: 2500, CoursePool: 120, ClubPool: 20, SemesterPool: 8,
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
	hs, err := rs.HeapStats()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Pages < 10 {
		t.Fatalf("heap spans only %d page(s); too small for a reopen bound", hs.Pages)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path, canon, hs.Pages
}

// reopenBudget bounds the page reads a clean open may spend: the
// catalog chain, the free-list chain, and each single-shard relation's
// B+tree meta page, with a little slack for a chained catalog. It must
// NOT scale with heap size.
func reopenBudget(rels int) int { return 4 + rels }

// TestReopenReadsBounded is the regression test for the durable-index
// payoff: reopening a clean N-tuple database reads O(catalog + index
// roots) pages — never the heap. A failure here means rebuild-on-open
// crept back in.
func TestReopenReadsBounded(t *testing.T) {
	path, canon, heapPages := buildReopenDB(t)
	st, err := Open(path, Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	open := st.OpenIOStats()
	if budget := reopenBudget(1); open.Misses > budget {
		t.Errorf("clean open read %d pages, budget %d (heap is %d pages)", open.Misses, budget, heapPages)
	}
	if open.Misses >= heapPages {
		t.Errorf("clean open read %d pages — a full heap scan (%d pages)", open.Misses, heapPages)
	}
	// the attached state answers correctly and matches the oracle
	rs, ok := st.Rel("R1")
	if !ok {
		t.Fatal("relation lost")
	}
	got, err := rs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(canon) {
		t.Fatal("content changed across fast reopen")
	}
	if err := st.VerifyIndexes(); err != nil {
		t.Fatalf("durable index diverged from heap oracle: %v", err)
	}
	// writes work after a lazy attach (the first insert resolves the
	// heap tail) and further reopens stay fast
	txn := st.Begin()
	if err := rs.Insert(txn, tupleOf([][]string{{"zc"}, {"zb"}, {"zs"}}, rs.Def().Order)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := st.VerifyIndexes(); err != nil {
		t.Fatalf("index wrong after post-reopen insert: %v", err)
	}
}

// rawDB lays out a two-page database file by hand — the catalog page
// holding hdr and, when non-nil, one relation record, then an empty
// free-list page — so a test can present Open with header and record
// shapes the store itself never writes.
func rawDB(t *testing.T, hdr, rel []byte) []byte {
	t.Helper()
	var cat, free storage.Page
	cat.Init()
	if _, err := cat.Insert(hdr); err != nil {
		t.Fatal(err)
	}
	if rel != nil {
		if _, err := cat.Insert(rel); err != nil {
			t.Fatal(err)
		}
	}
	cat.StampChecksum()
	free.Init()
	free.StampChecksum()
	return append(cat[:], free[:]...)
}

// TestOpenRefusesOtherFormats: format version 4 with a full relation
// record is the only readable shape. Every older or cut-short shape
// fails to open — writable and NoSweep alike — with ErrCorrupt, a
// message naming the version or the field, and the data file and the
// sidecar (refused when its header is another version's) untouched.
func TestOpenRefusesOtherFormats(t *testing.T) {
	header := func(version byte, withID bool) []byte {
		h := append(append([]byte{}, Magic[:]...), version)
		if withID {
			h = binary.LittleEndian.AppendUint64(h, 0xDEADBEEF)
		}
		return h
	}
	good := header(FormatVersion, true)
	def := testDef(t)
	def3 := def
	def3.Shards = 3
	full := encodeCatalogRecord(def, []shardRoots{{7, 15}}) // every root one byte
	for _, tc := range []struct {
		name     string
		hdr, rel []byte
		wal      []byte // nil = no sidecar
		refused  string // "" = opens
	}{
		{"current header, empty catalog", good, nil, nil, ""},
		{"header version 2", header(2, true), nil, nil, "version 2"},
		{"header version 3", header(3, true), nil, nil, "version 3"},
		{"id-less header", header(FormatVersion, false), nil, nil, "database id"},
		{"id-less version-2 header", header(2, false), nil, nil, "version 2"},
		{"zero heap root", good, encodeCatalogRecord(def, []shardRoots{{0, 15}}), nil, "heap root"},
		{"zero range root", good, encodeCatalogRecord(def, []shardRoots{{7, 0}}), nil, "shard 0 index root"},
		{"zero root in shard 1", good, encodeCatalogRecord(def3,
			[]shardRoots{{7, 15}, {20, 0}, {30, 33}}), nil, "shard 1 index root"},
		{"record without index roots", good, full[:len(full)-2], nil, "shard count"},
		{"record without range roots", good, full[:len(full)-1], nil, "shard 0 index root"},
		{"version-1 sidecar", good, nil, []byte{'N', 'F', 'R', 'W', 1, 0, 0, 0}, "version 1"},
		{"version-2 sidecar", good, nil,
			[]byte{'N', 'F', 'R', 'W', 2, 0, 0, 0, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0}, "version 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.nfrs")
			content := rawDB(t, tc.hdr, tc.rel)
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.wal != nil {
				if err := os.WriteFile(path+".wal", tc.wal, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, opts := range []Options{{}, {NoSweep: true}} {
				st, err := Open(path, opts)
				if tc.refused == "" {
					if err != nil {
						t.Fatalf("%+v: hand-built current-format file refused: %v", opts, err)
					}
					st.Discard()
					continue
				}
				if err == nil {
					st.Discard()
					t.Fatalf("%+v: opened", opts)
				}
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("%+v: error %q, want ErrCorrupt naming %q", opts, err, tc.refused)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, content) {
					t.Fatalf("%+v: refused file was modified", opts)
				}
				if after, err := os.ReadFile(path + ".wal"); (err == nil) != (tc.wal != nil) || !bytes.Equal(after, tc.wal) {
					t.Fatalf("%+v: refused open created or modified the sidecar", opts)
				}
			}
		})
	}
}

func mustRel(t *testing.T, st *Store, name string) *RelStore {
	t.Helper()
	rs, ok := st.Rel(name)
	if !ok {
		t.Fatalf("relation %q missing", name)
	}
	return rs
}
