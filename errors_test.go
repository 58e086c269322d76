package nfr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/storage/crashfs"
	"repro/internal/value"
)

// TestErrorTaxonomy is the errors.Is table for the public taxonomy:
// every failure mode of the facade must wrap its documented sentinel,
// including storage errors (ErrMispaired, ErrCorrupt) surfacing through
// Open and ErrFailed after a failed write-through.
func TestErrorTaxonomy(t *testing.T) {
	dir := t.TempDir()

	// a disk-backed database for the mutation/lifecycle cases
	path := filepath.Join(dir, "tax.nfrs")
	db, err := Open(path, WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(RelationDef{Name: "r", Schema: MustSchema("A", "B")}); err != nil {
		t.Fatal(err)
	}
	// a typed schema so attribute-kind mismatches have something to hit
	typedSchema, err := schema.New(
		schema.Attribute{Name: "N", Kind: value.Int},
		schema.Attribute{Name: "S", Kind: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(RelationDef{Name: "typed", Schema: typedSchema}); err != nil {
		t.Fatal(err)
	}

	committed, err := Begin(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := committed.Insert("r", Row("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}

	// wait-die conflict: younger (holding a latch) wants older's latch
	if err := db.Create(RelationDef{Name: "r2", Schema: MustSchema("A", "B")}); err != nil {
		t.Fatal(err)
	}
	older, _ := Begin(context.Background(), db)
	younger, _ := Begin(context.Background(), db)
	if _, err := older.Insert("r", Row("x", "y")); err != nil {
		t.Fatal(err)
	}
	if _, err := younger.Insert("r2", Row("x", "y")); err != nil {
		t.Fatal(err)
	}
	_, conflictErr := younger.Insert("r", Row("p", "q"))
	younger.Rollback()
	older.Rollback()

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"insert into unknown relation", errOf2(db.Insert("nope", Row("a", "b"))), ErrNotFound},
		{"drop of unknown relation", db.Drop("nope"), ErrNotFound},
		{"read of unknown relation", errOf2(db.ReadRelation(context.Background(), "nope")), ErrNotFound},
		{"duplicate create", db.Create(RelationDef{Name: "r", Schema: MustSchema("A")}), ErrExists},
		{"wrong degree", errOf2(db.Insert("r", Row("only-one"))), ErrTypeMismatch},
		{"wrong kind", errOf2(db.Insert("typed", Row("not-an-int", "s"))), ErrTypeMismatch},
		{"statement after commit", errOf2(committed.Insert("r", Row("c", "d"))), ErrTxDone},
		{"commit after commit", committed.Commit(), ErrTxDone},
		{"rollback after rollback", younger.Rollback(), ErrTxDone},
		{"wait-die refusal", conflictErr, ErrTxConflict},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: got %v, want errors.Is(_, %v)", c.name, c.err, c.want)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second close: %v (want nil)", err)
	}
	if _, err := db.Insert("r", Row("a", "b")); !errors.Is(err, ErrClosed) {
		t.Errorf("insert on closed database: %v, want ErrClosed", err)
	}

	// read-only
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Insert("r", Row("a2", "b2")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("read-only insert: %v, want ErrReadOnly", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	// ErrCorrupt surfaces through Open
	garbage := filepath.Join(dir, "garbage.nfrs")
	if err := os.WriteFile(garbage, []byte("not a database"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(garbage); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage open: %v, want ErrCorrupt", err)
	}

	// ErrMispaired: pair one database's data file with another's WAL
	mis := makeMispairedPair(t, dir)
	if _, err := Open(mis); !errors.Is(err, ErrMispaired) {
		t.Errorf("mispaired open: %v, want ErrMispaired", err)
	}

	// ErrFailed: a data-file write-through fails after the log fsync;
	// the commit and every later statement return it
	fsys := crashfs.New(nil)
	failing, err := Open("db", engine.WithFileSystem(fsys.Open, fsys.Remove))
	if err != nil {
		t.Fatal(err)
	}
	if err := failing.Create(RelationDef{Name: "r", Schema: MustSchema("A", "B")}); err != nil {
		t.Fatal(err)
	}
	fsys.FailWrite(func(name string) error {
		if name == "db" {
			return errors.New("injected data-file write failure")
		}
		return nil
	})
	if _, err := failing.Insert("r", Row("a", "b")); !errors.Is(err, ErrFailed) {
		t.Errorf("commit with a failed write-through: %v, want ErrFailed", err)
	}
	if _, err := failing.ReadRelation(context.Background(), "r"); !errors.Is(err, ErrFailed) {
		t.Errorf("read after a failed write-through: %v, want ErrFailed", err)
	}
	if err := failing.Close(); !errors.Is(err, ErrFailed) {
		t.Errorf("close after a failed write-through: %v, want ErrFailed", err)
	}

	// errors.As still reaches concrete wrapped types (the taxonomy wraps,
	// never replaces)
	var pathErr *fs.PathError
	if _, err := LoadDatabase(filepath.Join(dir, "missing.nfrs")); !errors.As(err, &pathErr) {
		t.Errorf("load of missing file: %v, want a wrapped *fs.PathError", err)
	}
}

// TestCorruptionIsErrCorrupt: each layer that finds stored bytes the
// engine cannot have written reports the facade's one ErrCorrupt — a
// heap record that does not decode, a B+tree leaf entry that does not
// decode, and a B+tree that disagrees with its heap. Each case edits
// one page of a cleanly closed file and restamps its checksum, so the
// bytes reach the decoders.
func TestCorruptionIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.nfrs")
	db, err := Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(RelationDef{Name: "r", Schema: MustSchema("A", "B")}); err != nil {
		t.Fatal(err)
	}
	for _, row := range []Flat{Row("a1", "b1"), Row("a2", "b2"), Row("a3", "b3")} {
		if _, err := db.Insert("r", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// corrupt copies clean, applies edit to the first page pick accepts,
	// and opens the copy.
	corrupt := func(name string, pick func(p *storage.Page) bool, edit func(p *storage.Page)) *Database {
		t.Helper()
		path := filepath.Join(dir, name+".nfrs")
		cp(t, clean, path)
		pg, err := storage.OpenPager(path)
		if err != nil {
			t.Fatal(err)
		}
		var p storage.Page
		found := false
		for pid := uint32(1); pid <= pg.NumPages() && !found; pid++ {
			if err := pg.Read(pid, &p); err != nil {
				t.Fatal(err)
			}
			if found = pick(&p); found {
				edit(&p)
				if err := pg.Write(pid, &p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := pg.Close(); err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("%s: no page to edit", name)
		}
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	// a heap page holds only degree-2 tuple records; a B+tree leaf's
	// record 0 is its 'L' header, followed by its entries
	heapPage := func(p *storage.Page) bool {
		n := 0
		p.LiveRecords(func(_ int, rec []byte) bool {
			if tp, m, err := encoding.DecodeTuple(rec); err != nil || m != len(rec) || tp.Degree() != 2 {
				n = -1
				return false
			}
			n++
			return true
		})
		return n > 0
	}
	leafPage := func(p *storage.Page) bool {
		hdr, err := p.Get(0)
		return err == nil && string(hdr) == "L" && p.Validate() == nil
	}
	lastRecord := func(p *storage.Page) []byte {
		var last []byte
		p.LiveRecords(func(_ int, rec []byte) bool { last = rec; return true })
		return last
	}

	badRecord := corrupt("record", heapPage, func(p *storage.Page) {
		lastRecord(p)[0] = 5 // a degree the record's bytes cannot hold
	})
	if _, err := badRecord.ReadRelation(context.Background(), "r"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("read of a bad heap record: %v, want ErrCorrupt", err)
	}

	// a heap page whose slot directory cannot fit the page: the
	// scan's error names the sentinel once, not once per layer
	badSlots := corrupt("slots", heapPage, func(p *storage.Page) {
		binary.LittleEndian.PutUint16(p[0:2], 4000)
	})
	_, err = badSlots.ReadRelation(context.Background(), "r")
	if !errors.Is(err, ErrCorrupt) || strings.Count(fmt.Sprint(err), "corrupt database") != 1 {
		t.Errorf("read of a heap page with 4 000 slots: %v, want ErrCorrupt named once", err)
	}

	badLeaf := corrupt("leaf", leafPage, func(p *storage.Page) {
		p.LiveRecords(func(slot int, rec []byte) bool {
			if slot > 0 {
				rec[0] = 0x7f // a key longer than the entry
			}
			return true
		})
	})
	if _, err := badLeaf.LookupFixed("r", value.NewString("a1")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lookup through a bad B+tree leaf entry: %v, want ErrCorrupt", err)
	}

	disagree := corrupt("disagree", leafPage, func(p *storage.Page) {
		e := lastRecord(p)
		e[len(e)-2], e[len(e)-1] = 0xff, 0xff // the last entry's rid.Slot, still in key order
	})
	if err := disagree.VerifyIndexes(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("an index that disagrees with its heap: %v, want ErrCorrupt", err)
	}
}

// makeMispairedPair builds <dir>/mis.nfrs whose WAL sidecar belongs to
// a different database: the shuffled-pair scenario the id check refuses.
func makeMispairedPair(t *testing.T, dir string) string {
	t.Helper()
	build := func(name string) (string, string) {
		p := filepath.Join(dir, name)
		// huge checkpoint threshold so the WAL keeps its batches (a
		// checkpoint or clean close would truncate or remove it)
		db, err := Open(p, WithCheckpointBytes(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Create(RelationDef{Name: "x", Schema: MustSchema("A")}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("x", Row("a")); err != nil {
			t.Fatal(err)
		}
		// snapshot the live pair (commits write through as they happen)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(p + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		d := filepath.Join(dir, name+".data")
		w := filepath.Join(dir, name+".walcopy")
		os.WriteFile(d, data, 0o644)
		os.WriteFile(w, wal, 0o644)
		return d, w
	}
	dataA, _ := build("a.nfrs")
	_, walB := build("b.nfrs")
	mis := filepath.Join(dir, "mis.nfrs")
	cp(t, dataA, mis)
	cp(t, walB, mis+".wal")
	return mis
}

func cp(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func errOf2[T any](_ T, err error) error { return err }
