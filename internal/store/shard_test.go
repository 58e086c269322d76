package store

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// TestCatalogShardRoundTrip: a relation created with Shards=K must come
// back from a reopen with K chains, the same Shards in its def, and a
// canonical content equal to what went in — the catalog record's
// per-shard roots are what's under test.
func TestCatalogShardRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	def.Shards = 3
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.ShardCount(); got != 3 {
		t.Fatalf("ShardCount = %d, want 3", got)
	}

	// shard-bounded Shards must be enforced at create time
	bad := testDef(t)
	bad.Name = "TooMany"
	bad.Shards = maxShards + 1
	if _, err := st.CreateRelation(txn, bad); err == nil {
		t.Fatalf("Shards=%d accepted (max %d)", bad.Shards, maxShards)
	}

	var flats []tuple.Flat
	for i := 0; i < 30; i++ {
		flats = append(flats, tuple.FlatOfStrings(
			fmt.Sprintf("s%02d", i%10), fmt.Sprintf("c%d", i%4), fmt.Sprintf("b%d", i%3)))
	}
	canon, _ := core.MustFromFlats(def.Schema, flats).Canonical(def.Order)
	if err := rs.Fill(txn, canon); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	// the fixture must span chains, or the round-trip is vacuous
	populated := 0
	for i := 0; i < rs.ShardCount(); i++ {
		if countTuples(t, rs.Shard(i).Scan) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("fill landed on %d shard(s); sharding untested", populated)
	}
	if err := st.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rs2, ok := st2.Rel(def.Name)
	if !ok {
		t.Fatalf("relation %q lost on reopen", def.Name)
	}
	if got := rs2.ShardCount(); got != 3 {
		t.Fatalf("reopened ShardCount = %d, want 3", got)
	}
	if got := rs2.Def().Shards; got != 3 {
		t.Fatalf("reopened def.Shards = %d, want 3", got)
	}
	got, err := rs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	// the union of shard partitions is re-canonicalized for comparison,
	// exactly as the engine's read path does
	merged, _ := got.CanonicalFromFlats(def.Order)
	if !merged.Equal(canon) {
		t.Fatalf("reopened content diverged:\ngot  %v\nwant %v", merged, canon)
	}
	if err := st2.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestShardOfAtomStable: the shard routing function must be a pure
// function of the atom encoding — a layout change would strand every
// existing tuple on the wrong chain at reopen.
func TestShardOfAtomStable(t *testing.T) {
	s := schema.MustOf("A")
	_ = s
	for k := 1; k <= 5; k++ {
		for i := 0; i < 50; i++ {
			a := tuple.FlatOfStrings(fmt.Sprintf("atom-%d", i))[0]
			first := ShardOfAtom(a, k)
			if first < 0 || first >= k {
				t.Fatalf("ShardOfAtom out of range: %d of %d", first, k)
			}
			if again := ShardOfAtom(a, k); again != first {
				t.Fatalf("ShardOfAtom not deterministic: %d then %d", first, again)
			}
		}
	}
	// k=1 must route everything to the single chain
	if got := ShardOfAtom(tuple.FlatOfStrings("x")[0], 1); got != 0 {
		t.Fatalf("ShardOfAtom(_, 1) = %d", got)
	}
}

// TestShardIndexReclaimFreesPages: the fill/drain cycle through the
// store — many tuples sharing one determinant atom grow a run of
// duplicate keys across several B+tree leaves; deleting them must
// return the emptied leaves to the free list under the same transaction.
// It is also the victim lookup's worst case: k up to 500 per Remove.
func TestShardIndexReclaimFreesPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nfrs")
	st, err := Open(path, Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	def := testDef(t)
	def.Name = "Drain"
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		t.Fatal(err)
	}

	// FILL: every tuple fixes on the same student, so every insert adds
	// one more "s0" entry to the index — the run splits a leaf once a
	// page fills
	var tuples []tuple.Tuple
	for i := 0; i < 500; i++ {
		one, _ := core.MustFromFlats(def.Schema, []tuple.Flat{
			tuple.FlatOfStrings("s0", fmt.Sprintf("c%04d", i), fmt.Sprintf("b%d", i%7)),
		}).Canonical(def.Order)
		tp := one.Tuple(0)
		if err := rs.Insert(txn, tp); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tp)
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	fixedPages, err := rs.Shard(0).rangeD.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(fixedPages) < 4 {
		t.Fatalf("500 same-key entries only span %d index pages; no leaf to reclaim", len(fixedPages))
	}
	freeBefore := st.FreePages()

	// DRAIN, newest first: the victim is the last record listed under
	// "s0", so each Remove reads every record still there
	txn = st.Begin()
	for i := len(tuples) - 1; i >= 0; i-- {
		if err := rs.Remove(txn, tuples[i]); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if got := countTuples(t, rs.Scan); got != 0 {
		t.Fatalf("%d tuples after drain, want 0", got)
	}
	freeAfter := st.FreePages()
	if freeAfter <= freeBefore {
		t.Fatalf("free list did not grow (%d -> %d): emptied leaves leaked", freeBefore, freeAfter)
	}
	drained, err := rs.Shard(0).rangeD.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) >= len(fixedPages) {
		t.Fatalf("index still holds %d pages (was %d)", len(drained), len(fixedPages))
	}
	if err := st.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}

	// REFILL: the reclaimed pages must be reusable — the file should not
	// need to grow much to absorb the same load again
	sizeAfterDrain := st.NumPages()
	txn = st.Begin()
	for _, tp := range tuples {
		if err := rs.Insert(txn, tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if grew := int(st.NumPages()) - int(sizeAfterDrain); grew > len(fixedPages) {
		t.Errorf("refill grew the file by %d pages (first fill used %d index pages): free list not reused", grew, len(fixedPages))
	}
	if err := st.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestShardOfAtomZeroFloats: the two float zeros are equal under
// value.Compare and in the index key, so they route to one shard.
func TestShardOfAtomZeroFloats(t *testing.T) {
	for k := 2; k <= 8; k++ {
		neg, pos := ShardOfAtom(value.NewFloat(math.Copysign(0, -1)), k), ShardOfAtom(value.NewFloat(0), k)
		if neg != pos {
			t.Errorf("k=%d: -0.0 routes to shard %d, +0.0 to shard %d", k, neg, pos)
		}
	}
}
