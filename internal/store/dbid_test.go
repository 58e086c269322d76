package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// crashedPair builds a database at path with one committed tuple and
// "crashes" it (Discard), leaving the WAL sidecar with committed
// batches — the shape recovery normally trusts.
func crashedPair(t *testing.T, path string) {
	t.Helper()
	st, err := Open(path, Options{CheckpointBytes: -1})
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
	if st.dbid == 0 {
		t.Fatal("fresh database has no id")
	}
	st.Discard() // crash: sidecar survives with its batches
}

// TestMispairedWALRefused: a data file opened next to another
// database's WAL sidecar must refuse with ErrMispaired — replaying the
// wrong log would splice foreign pages into the file. Covers both
// directions of a shuffled pair and the copied-data-file case.
func TestMispairedWALRefused(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.nfrs")
	b := filepath.Join(dir, "b.nfrs")
	crashedPair(t, a)
	crashedPair(t, b)

	cp := func(src, dst string) {
		t.Helper()
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// shuffled pair: a's data + b's sidecar (and vice versa)
	shuffled := filepath.Join(dir, "shuffled.nfrs")
	cp(a, shuffled)
	cp(b+".wal", shuffled+".wal")
	if _, err := Open(shuffled, Options{}); !errors.Is(err, ErrMispaired) {
		t.Fatalf("shuffled pair opened with err=%v, want ErrMispaired", err)
	}

	// copied data file dropped next to an unrelated sidecar
	copied := filepath.Join(dir, "copied.nfrs")
	cp(b, copied)
	cp(a+".wal", copied+".wal")
	if _, err := Open(copied, Options{}); !errors.Is(err, ErrMispaired) {
		t.Fatalf("copied pair opened with err=%v, want ErrMispaired", err)
	}

	// the matched pairs still recover normally
	for _, path := range []string{a, b} {
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("matched pair %s refused: %v", path, err)
		}
		rs, ok := st.Rel("R1")
		if !ok {
			t.Fatal("relation lost across recovery")
		}
		if n := countTuples(t, rs.scan); n != 1 {
			t.Fatalf("recovered %d tuples, want 1", n)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleWALFromOldIncarnationRefused: delete a database, recreate it
// at the same path (new id), then restore the OLD incarnation's sidecar
// — recovery must refuse rather than replay pages from the previous
// life of the file.
func TestStaleWALFromOldIncarnationRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.nfrs")
	crashedPair(t, path)
	oldWAL, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	// recover cleanly (removes the sidecar), then start a new
	// incarnation from scratch
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	crashedPair(t, path)
	// swap in the first incarnation's log
	if err := os.WriteFile(path+".wal", oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrMispaired) {
		t.Fatalf("stale-incarnation sidecar opened with err=%v, want ErrMispaired", err)
	}
}

// flipByte XORs one byte of the file at off, tearing whatever page
// contains it (the page checksum no longer matches).
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestTornHeaderMispairedWALRefused: page 1 torn (checksum broken) but
// with the header's raw id bytes still legible, next to another
// database's sidecar. The checksum-gated probe sees nothing, but the
// raw fixed-offset probe must still catch the id mismatch and refuse —
// "the page is torn" must not become a license to replay a foreign log.
func TestTornHeaderMispairedWALRefused(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.nfrs")
	b := filepath.Join(dir, "b.nfrs")
	crashedPair(t, a)
	crashedPair(t, b)

	// tear page 1 of a beyond the header record's id bytes (page 1 is at
	// file offset 0; magic [20:24), version [24], id [25:33))
	flipByte(t, a, 100)
	// pair it with b's sidecar
	wal, err := os.ReadFile(b + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a+".wal", wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(a, Options{}); !errors.Is(err, ErrMispaired) {
		t.Fatalf("torn+mispaired pair opened with err=%v, want ErrMispaired", err)
	}
}

// TestTornHeaderMatchingWALRepairs: the same torn page 1, but paired
// with the database's OWN sidecar — the raw probe confirms the ids
// match and recovery repairs the page from the log. This is the
// legitimate crash pairing the raw probe must not break.
func TestTornHeaderMatchingWALRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	crashedPair(t, path)
	flipByte(t, path, 100)
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("torn page 1 with matching sidecar refused: %v", err)
	}
	defer st.Close()
	rs, ok := st.Rel("R1")
	if !ok {
		t.Fatal("relation lost across torn-header recovery")
	}
	if n := countTuples(t, rs.scan); n != 1 {
		t.Fatalf("recovered %d tuples, want 1", n)
	}
}

// TestDestroyedHeaderBestEffort pins the probe's documented limit: when
// the tear destroys the header's own magic bytes, no id survives at
// either probe and recovery falls back to trusting the sidecar. With a
// mispaired sidecar the replay rebuilds the file in the foreign
// database's image — detectably wrong to a human, but structurally a
// valid database. This is best-effort by design; the test exists so a
// behavior change here is a conscious one.
func TestDestroyedHeaderBestEffort(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.nfrs")
	b := filepath.Join(dir, "b.nfrs")
	crashedPair(t, a)
	crashedPair(t, b)

	flipByte(t, a, 20) // first magic byte: raw probe now returns 0
	wal, err := os.ReadFile(b + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a+".wal", wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(a, Options{})
	if err != nil {
		t.Fatalf("destroyed-header pair refused: %v (best-effort path should replay)", err)
	}
	defer st.Close()
	// the replayed file is b's image, id included
	if st.dbid == 0 {
		t.Fatal("replayed database has no id")
	}
	rs, ok := st.Rel("R1")
	if !ok {
		t.Fatal("replayed database lost its relation")
	}
	if n := countTuples(t, rs.scan); n != 1 {
		t.Fatalf("replayed database has %d tuples, want 1", n)
	}
}

// TestDBIDStableAcrossReopen: the id is minted once at initialization
// and survives clean closes, reopens, and crash recovery.
func TestDBIDStableAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := st.dbid
	if id == 0 {
		t.Fatal("no database id minted")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.dbid != id {
		t.Fatalf("id changed across reopen: %016x != %016x", st2.dbid, id)
	}
}
