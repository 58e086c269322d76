package encoding_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
	"repro/internal/workload"
)

// randomRelations draws relations across the workload generators —
// uniform, zipf-skewed, planted-MVD, planted-FD — both flat and in a
// random canonical form, so the codec is exercised on singleton and
// grouped components alike.
func randomRelations(seed int64, n int) []*core.Relation {
	rng := rand.New(rand.NewSource(seed))
	var out []*core.Relation
	for i := 0; i < n; i++ {
		var r *core.Relation
		switch i % 4 {
		case 0:
			r = workload.GenUniform(rng.Int63(), 5+rng.Intn(60), 2+rng.Intn(4), 2+rng.Intn(8))
		case 1:
			r = workload.GenZipf(rng.Int63(), 5+rng.Intn(60), 2+rng.Intn(3), 2+rng.Intn(10))
		case 2:
			r = workload.GenPlantedMVD(rng.Int63(), workload.PlantedParams{
				Groups: 2 + rng.Intn(8), RhsPool: 4 + rng.Intn(6),
				MeanBlock: 1 + rng.Intn(3), Extra: rng.Intn(2), ExtraPool: 3,
			})
		default:
			r = workload.GenPlantedFD(rng.Int63(), 3+rng.Intn(20), 1+rng.Intn(4), 2+rng.Intn(5))
		}
		if rng.Intn(2) == 0 {
			perms := schema.AllPermutations(r.Schema().Degree())
			canon, _ := r.Canonical(perms[rng.Intn(len(perms))])
			r = canon
		}
		out = append(out, r)
	}
	return out
}

// TestRelationRoundTripProperty: for random relations, WriteRelation
// followed by ReadRelation reproduces the relation exactly (same NFR
// tuples), hence the same denoted 1NF relation.
func TestRelationRoundTripProperty(t *testing.T) {
	for i, r := range randomRelations(101, 40) {
		var buf bytes.Buffer
		if err := encoding.WriteRelation(&buf, r); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		got, err := encoding.ReadRelation(&buf)
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if !got.Schema().Equal(r.Schema()) {
			t.Fatalf("case %d: schema changed", i)
		}
		if !got.Equal(r) {
			t.Fatalf("case %d: tuple set changed", i)
		}
		if !got.EquivalentTo(r) {
			t.Fatalf("case %d: denoted 1NF relation changed", i)
		}
	}
}

// TestTupleRoundTripProperty: every tuple of every random relation
// round-trips through EncodeTuple/DecodeTuple byte-exactly, and every
// strict prefix of its encoding is rejected.
func TestTupleRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, r := range randomRelations(202, 20) {
		for j := 0; j < r.Len(); j++ {
			tp := r.Tuple(j)
			enc := encoding.EncodeTuple(tp)
			got, n, err := encoding.DecodeTuple(enc)
			if err != nil {
				t.Fatalf("case %d tuple %d: decode: %v", i, j, err)
			}
			if n != len(enc) {
				t.Fatalf("case %d tuple %d: consumed %d of %d bytes", i, j, n, len(enc))
			}
			if !got.Equal(tp) {
				t.Fatalf("case %d tuple %d: changed across round trip", i, j)
			}
			// truncations must error, never panic (sampled for speed)
			cut := rng.Intn(len(enc))
			if _, m, err := encoding.DecodeTuple(enc[:cut]); err == nil && m == cut && cut != len(enc) {
				// a shorter valid tuple prefix would re-decode with
				// m < cut only; m == cut means full consumption of a
				// truncated buffer, which must not happen silently
				t.Fatalf("case %d tuple %d: truncation to %d decoded fully", i, j, cut)
			}
		}
	}
}

// TestMixedKindAtomsRoundTrip exercises all atom kinds, including the
// edge payloads the generators never produce.
func TestMixedKindAtomsRoundTrip(t *testing.T) {
	atoms := []value.Atom{
		value.NullAtom(),
		value.NewBool(false), value.NewBool(true),
		value.NewInt(0), value.NewInt(-1), value.NewInt(1<<62 - 1), value.NewInt(-(1 << 62)),
		value.NewFloat(0), value.NewFloat(-0.0), value.NewFloat(3.5e-300), value.NewFloat(1e300),
		value.NewString(""), value.NewString("plain"), value.NewString("with \"quotes\" and \\"),
		value.NewString("unicode ⊥ ✓"), value.NewString(string([]byte{0, 1, 255})),
	}
	sets := make([]vset.Set, 0)
	for i := 0; i < len(atoms); i += 3 {
		end := i + 3
		if end > len(atoms) {
			end = len(atoms)
		}
		sets = append(sets, vset.New(atoms[i:end]...))
	}
	tp := tuple.MustNew(sets...)
	enc := encoding.EncodeTuple(tp)
	got, _, err := encoding.DecodeTuple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tp) {
		t.Fatal("mixed-kind tuple changed across round trip")
	}
}

// TestPagedFormatRoundTripProperty: random relations written through
// the paged store (heap chains behind the buffer pool) and read back
// after a real close/reopen must match exactly — the on-disk format
// satellite of the encode/decode property.
func TestPagedFormatRoundTripProperty(t *testing.T) {
	rels := randomRelations(303, 12)
	dir := t.TempDir()
	for i, r := range rels {
		path := filepath.Join(dir, fmt.Sprintf("db%d.nfrs", i))
		st, err := store.Open(path, store.Options{PoolPages: 3})
		if err != nil {
			t.Fatal(err)
		}
		def := store.RelationDef{
			Name:   "r",
			Schema: r.Schema(),
			Order:  schema.IdentityPerm(r.Schema().Degree()),
		}
		txn := st.Begin()
		rs, err := st.CreateRelation(txn, def)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r.Len(); j++ {
			if err := rs.Insert(txn, r.Tuple(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(path, store.Options{PoolPages: 3})
		if err != nil {
			t.Fatalf("case %d: reopen: %v", i, err)
		}
		rs2, ok := st2.Rel("r")
		if !ok {
			t.Fatalf("case %d: relation lost", i)
		}
		got, err := rs2.LoadCtx(context.Background(), nil)
		if err != nil {
			t.Fatalf("case %d: load: %v", i, err)
		}
		if !got.Schema().Equal(r.Schema()) || !got.Equal(r) {
			t.Fatalf("case %d: relation changed across paged round trip", i)
		}
		st2.Close()
	}
}
