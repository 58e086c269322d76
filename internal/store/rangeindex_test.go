package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// TestCatalogRecordRangeRoots covers the per-shard roots of the
// catalog record: single-chain (extra-shard count 0) and sharded, with
// the B+tree roots after the extra shards' heap roots.
func TestCatalogRecordRangeRoots(t *testing.T) {
	def := testDef(t)

	rec := encodeCatalogRecord(def, []shardRoots{{7, 15}})
	ce, err := decodeCatalogRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ce.shards) != 1 || ce.shards[0] != (shardRoots{7, 15}) || ce.def.Shards != 1 {
		t.Fatalf("single-chain record decoded %+v", ce)
	}

	def3 := def
	def3.Shards = 3
	roots := []shardRoots{{7, 15}, {20, 23}, {30, 33}}
	rec3 := encodeCatalogRecord(def3, roots)
	ce3, err := decodeCatalogRecord(rec3)
	if err != nil {
		t.Fatal(err)
	}
	if ce3.def.Shards != 3 || len(ce3.shards) != 3 ||
		ce3.shards[0] != roots[0] || ce3.shards[1] != roots[1] || ce3.shards[2] != roots[2] {
		t.Fatalf("sharded record decoded %+v", ce3)
	}

	// every strict prefix of either record is rejected
	for _, r := range [][]byte{rec, rec3} {
		for i := 1; i < len(r); i++ {
			if _, err := decodeCatalogRecord(r[:i]); err == nil {
				t.Fatalf("truncated record of %d/%d bytes accepted", i, len(r))
			}
		}
	}
}

// rangeOracle filters the shard contents by hand: every tuple with at
// least one fixed atom inside [lo, hi] per the inclusive flags.
func rangeOracle(t *testing.T, rs *RelStore, lo, hi *RangeBound) map[string]bool {
	t.Helper()
	fixedAt := rs.Shard(0).fixedAttr()
	want := make(map[string]bool)
	if err := rs.Scan(func(tp tuple.Tuple) bool {
		for _, a := range tp.Set(fixedAt).Atoms() {
			if lo != nil {
				if c := value.Compare(a, lo.Atom); c < 0 || (c == 0 && !lo.Incl) {
					continue
				}
			}
			if hi != nil {
				if c := value.Compare(a, hi.Atom); c > 0 || (c == 0 && !hi.Incl) {
					continue
				}
			}
			want[string(tp.Key())] = true
			break
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return want
}

func keysOf(ts []tuple.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, tp := range ts {
		out[string(tp.Key())] = true
	}
	return out
}

// TestScanFixedRange drives the B+tree-backed range scan against the
// heap oracle on a single-chain and a 4-sharded relation, including
// grouped determinants (one tuple, several atoms in range — returned
// once) and unbounded sides, and holds the pages it reports to descent
// plus matching leaves: fewer than the heap scan it replaces.
func TestScanFixedRange(t *testing.T) {
	// A leaf splits only when a page is full, into halves of equal
	// count, and an entry here is under 32 bytes: no leaf of a tree
	// built by inserts alone holds fewer than this many.
	const minLeafEntries = 64
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.nfrs")
			st, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			def := testDef(t)
			def.Shards = shards
			txn := st.Begin()
			rs, err := st.CreateRelation(txn, def)
			if err != nil {
				t.Fatal(err)
			}
			// students s0000..s1999 one per tuple (several leaves and heap
			// pages per shard), plus a grouped tuple in the probe windows
			for i := 0; i < 2000; i++ {
				s := fmt.Sprintf("s%04d", i)
				tp := tupleOf([][]string{{fmt.Sprintf("c%d", i%7)}, {"b1"}, {s}}, def.Order)
				if err := rs.Shard(ShardOfAtom(value.NewString(s), shards)).Insert(txn, tp); err != nil {
					t.Fatal(err)
				}
			}
			if shards == 1 {
				grouped := tupleOf([][]string{{"c9"}, {"b2"}, {"s0510x", "s0511x", "s0512x"}}, def.Order)
				if err := rs.Insert(txn, grouped); err != nil {
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
			descent := 0 // one root-to-leaf path per shard
			for i := 0; i < shards; i++ {
				descent += rs.Shard(i).rangeD.Height()
			}

			bound := func(s string, incl bool) *RangeBound {
				return &RangeBound{Atom: value.NewString(s), Incl: incl}
			}
			cases := []struct{ lo, hi *RangeBound }{
				{bound("s0500", true), bound("s0600", false)},
				{bound("s0500", false), bound("s0600", true)},
				{nil, bound("s0050", true)},
				{bound("s1950", true), nil},
				{nil, nil},
				{bound("s9999", true), nil}, // empty window
			}
			for _, tc := range cases {
				got, pages, err := rs.ScanFixedRange(tc.lo, tc.hi)
				if err != nil {
					t.Fatal(err)
				}
				want := rangeOracle(t, rs, tc.lo, tc.hi)
				if gotKeys := keysOf(got); len(gotKeys) != len(got) || len(gotKeys) != len(want) {
					t.Fatalf("range scan returned %d tuples (%d unique), oracle %d", len(got), len(gotKeys), len(want))
				} else {
					for k := range want {
						if !gotKeys[k] {
							t.Fatalf("range scan lost a tuple the oracle has")
						}
					}
				}
				if pages < shards {
					t.Fatalf("range scan reports %d pages over %d shards", pages, shards)
				}
				// every index entry in the window is an atom of a returned tuple
				entries := 0
				for _, tp := range got {
					entries += tp.Set(rs.Shard(0).fixedAttr()).Len()
				}
				if max := descent + entries/minLeafEntries + 2*shards; pages > max {
					t.Fatalf("range scan over %d entries read %d index pages, want ≤ %d (descent %d + matching leaves + 1 per shard)",
						entries, pages, max, descent)
				}
				if narrow := tc.lo != nil || tc.hi != nil; narrow && pages >= hs.Pages {
					t.Fatalf("range scan over %d entries read %d index pages, the heap scan reads %d", entries, pages, hs.Pages)
				}
			}
			if err := rs.VerifyIndex(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRangeIndexMaintenance checks delete and replace keep the B+tree
// in lockstep with the heap (the oracle is VerifyIndex's structural +
// probe pass, which covers the range index too).
func TestRangeIndexMaintenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	def := testDef(t)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []tuple.Tuple
	for i := 0; i < 30; i++ {
		tp := tupleOf([][]string{{fmt.Sprintf("c%d", i)}, {"b"}, {fmt.Sprintf("s%02d", i)}}, def.Order)
		tuples = append(tuples, tp)
		if err := rs.Insert(txn, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	txn2 := st.Begin()
	for _, tp := range tuples[:15] {
		if err := rs.Remove(txn2, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	if err := rs.VerifyIndex(); err != nil {
		t.Fatalf("after deletes: %v", err)
	}
	got, _, err := rs.ScanFixedRange(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Fatalf("full range scan after deletes returned %d tuples, want 15", len(got))
	}
	var names []string
	for _, tp := range got {
		names = append(names, tp.Set(rs.Shard(0).fixedAttr()).Atoms()[0].S)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("range scan out of order: %v", names)
	}
}
