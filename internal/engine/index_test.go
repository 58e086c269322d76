package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/tuple"
	"repro/internal/value"
)

// rangeFlats builds flats whose fixed attribute (Student, schema index
// 0, last in the canonical order) takes n distinct sortable values.
func rangeFlats(n int) []tuple.Flat {
	fs := make([]tuple.Flat, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, row(fmt.Sprintf("s%02d", i), fmt.Sprintf("c%02d", i%5), fmt.Sprintf("k%d", i%3)))
	}
	return fs
}

func inBound(a value.Atom, lo, hi *Bound) bool {
	if lo != nil {
		c := value.Compare(a, lo.Atom)
		if c < 0 || (c == 0 && !lo.Incl) {
			return false
		}
	}
	if hi != nil {
		c := value.Compare(a, hi.Atom)
		if c > 0 || (c == 0 && !hi.Incl) {
			return false
		}
	}
	return true
}

// matchKeys returns the keys of rel's flat expansion whose fixed atom
// lies in [lo, hi] — the heap-scan definition of the matching set. The
// index fetch must be a superset of it at the flat level; after the
// caller re-applies the bound (exactly what the query planner does with
// its residual predicate) both sides must agree.
func matchKeys(rel *core.Relation, fixedIdx int, lo, hi *Bound) map[string]bool {
	out := map[string]bool{}
	for _, f := range rel.Expand() {
		if inBound(f[fixedIdx], lo, hi) {
			out[f.Key()] = true
		}
	}
	return out
}

func checkFetch(t *testing.T, got, full *core.Relation, fixedIdx int, lo, hi *Bound) {
	t.Helper()
	want := matchKeys(full, fixedIdx, lo, hi)
	gotMatch := matchKeys(got, fixedIdx, lo, hi)
	if len(gotMatch) != len(want) {
		t.Fatalf("fetch covers %d matching flats, want %d", len(gotMatch), len(want))
	}
	for k := range want {
		if !gotMatch[k] {
			t.Fatalf("fetch missing matching flat %s", k)
		}
	}
	// every fetched tuple was fetched for a reason: ≥1 fixed atom in range
	for i := 0; i < got.Len(); i++ {
		hit := false
		for _, a := range got.Tuple(i).Set(fixedIdx).Atoms() {
			if inBound(a, lo, hi) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("fetched tuple %s has no fixed atom in range", got.Tuple(i))
		}
	}
}

func TestEngineIndexInfo(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "ix.nfrs"), WithPoolPages(32))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(txTestDef("r1")); err != nil {
		t.Fatal(err)
	}
	info, err := db.IndexInfo("r1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 1 || info.FixedAttr != "Student" {
		t.Fatalf("IndexInfo = %+v", info)
	}
}

func TestEngineIndexedReads(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := Open(filepath.Join(t.TempDir(), "ix.nfrs"), WithPoolPages(64))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Create(shardedDef("r1", shards)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.InsertMany("r1", rangeFlats(40)); err != nil {
				t.Fatal(err)
			}
			full, err := db.ReadRelation(context.Background(), "r1")
			if err != nil {
				t.Fatal(err)
			}
			const fixedIdx = 0 // Student: schema index 0, last in canonical order

			// point probe fetches exactly the tuples containing the atom
			a := value.NewString("s07")
			got, err := db.LookupFixed("r1", a)
			if err != nil {
				t.Fatal(err)
			}
			pb := &Bound{Atom: a, Incl: true}
			checkFetch(t, got, full, fixedIdx, pb, pb)

			// range scans cover the heap-scan matching set, pages reported
			cases := []struct{ lo, hi *Bound }{
				{nil, nil},
				{&Bound{value.NewString("s10"), true}, &Bound{value.NewString("s20"), false}},
				{&Bound{value.NewString("s35"), false}, nil},
				{nil, &Bound{value.NewString("s05"), true}},
				{&Bound{value.NewString("s99"), true}, nil}, // empty
			}
			for i, c := range cases {
				got, pages, err := db.ScanFixedRange("r1", c.lo, c.hi)
				if err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
				checkFetch(t, got, full, fixedIdx, c.lo, c.hi)
				if pages <= 0 {
					t.Fatalf("case %d: scan reported %d index pages", i, pages)
				}
			}

			// a transaction sees its own uncommitted writes through the index
			tx, err := db.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Insert("r1", row("s55", "cx", "kx")); err != nil {
				t.Fatal(err)
			}
			seen, _, err := tx.ScanFixedRange("r1", &Bound{value.NewString("s50"), true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if seen.Len() != 1 {
				t.Fatalf("tx range scan missed own write: %d tuples", seen.Len())
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}

			// index page stats: the tree has a footprint
			ips, err := db.IndexPageStats()
			if err != nil {
				t.Fatal(err)
			}
			c, ok := ips["r1"]
			if !ok {
				t.Fatal("IndexPageStats missing r1")
			}
			if c.BTreeInner == 0 || c.BTreeLeaf == 0 {
				t.Fatalf("IndexPageStats r1 = %+v, want both nonzero", c)
			}
		})
	}
}
