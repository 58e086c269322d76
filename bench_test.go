package nfr_test

// Go benchmarks of the paper's machinery: one per paper artifact
// (figures, examples, theorems) plus ablations (Section-4 incremental
// maintenance against re-nesting, the candidate index against the naive
// scan). Run with:
//
//	go test -bench=. -benchmem
//
// The tables themselves are printed by cmd/nfr-repro; end-to-end
// engine throughput is nfr-spine's job (bench/).

import (
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/encoding"
	"repro/internal/experiments"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/update"
	"repro/internal/value"
	"repro/internal/vset"
	"repro/internal/workload"
)

// ---- F1/F2: figure pipelines -------------------------------------------

func BenchmarkFig1Build(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig1(io.Discard)
	}
}

func BenchmarkFig2Update(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig2(io.Discard)
	}
}

// ---- F3: classification sweep ------------------------------------------

func BenchmarkFig3Classify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig3(io.Discard, 40, int64(i))
	}
}

// ---- X2: exact minimum irreducible search ------------------------------

func BenchmarkEx2MinIrreducible(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunExample2(io.Discard)
	}
}

// ---- T1/T2: expansion and canonicalization -----------------------------

func benchRelation(rows int) *core.Relation {
	return workload.GenUniform(7, rows, 3, 8)
}

func BenchmarkExpand(b *testing.B) {
	r := benchRelation(2000)
	c, _ := r.Canonical(schema.IdentityPerm(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Expand()
	}
}

func BenchmarkCanonical(b *testing.B) {
	r := benchRelation(2000)
	p := schema.IdentityPerm(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Canonical(p)
	}
}

// ---- A4: incremental updates -------------------------------------------

func insertWorkload(b *testing.B, rows int) (*update.Maintainer, []tuple.Flat) {
	b.Helper()
	s := schema.MustOf("A", "B", "C")
	m, err := update.NewMaintainer(s, schema.IdentityPerm(3))
	if err != nil {
		b.Fatal(err)
	}
	flats := workload.GenUniform(11, rows, 3, 12).Expand()
	for _, f := range flats {
		if _, err := m.Insert(f); err != nil {
			b.Fatal(err)
		}
	}
	return m, flats
}

func BenchmarkInsertIncremental(b *testing.B) {
	m, _ := insertWorkload(b, 2000)
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := tuple.Flat{
			tuple.FlatOfStrings("0")[0], tuple.FlatOfStrings("0")[0], tuple.FlatOfStrings("0")[0],
		}
		f[0] = workloadAtom(rng, 4000)
		f[1] = workloadAtom(rng, 12)
		f[2] = workloadAtom(rng, 12)
		if _, err := m.Insert(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteIncremental(b *testing.B) {
	m, flats := insertWorkload(b, 2000)
	rng := rand.New(rand.NewSource(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flats[rng.Intn(len(flats))]
		if _, err := m.Delete(f); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := m.Insert(f); err != nil { // restore for next round
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// Ablation: Section-4 incremental insert vs re-nesting
// the whole relation from scratch.
func BenchmarkInsertIncrementalVsRebuild(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		m, _ := insertWorkload(b, 1000)
		rng := rand.New(rand.NewSource(19))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := tuple.Flat{workloadAtom(rng, 4000), workloadAtom(rng, 12), workloadAtom(rng, 12)}
			if _, err := m.Insert(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		m, _ := insertWorkload(b, 1000)
		rng := rand.New(rand.NewSource(19))
		rel := m.Relation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := tuple.Flat{workloadAtom(rng, 4000), workloadAtom(rng, 12), workloadAtom(rng, 12)}
			flat := rel.ExpandRelation()
			flat.Add(tuple.FromFlat(f))
			rel, _ = flat.Canonical(schema.IdentityPerm(3))
		}
	})
}

func workloadAtom(rng *rand.Rand, n int) value.Atom {
	return value.NewInt(int64(rng.Intn(n)))
}

// ---- C1: compression ----------------------------------------------------

func BenchmarkCompressionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunCompression(io.Discard, int64(i), 1)
	}
}

// ---- C2: NFR scan vs 4NF join -------------------------------------------

func BenchmarkNFRvsJoin(b *testing.B) {
	e := workload.GenEnrollment(23, workload.DefaultEnrollment())
	order := schema.MustPermOf(e.R1.Schema(), "Course", "Club", "Student")
	canon, _ := e.R1.Canonical(order)
	mvds := []dep.MVD{dep.NewMVD([]string{"Student"}, []string{"Course"})}
	dec, err := baseline.NewDecomposed4NF(e.R1.Schema(), nil, mvds)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range e.R1.Expand() {
		dec.Insert(f)
	}
	b.Run("nfr-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for j := 0; j < canon.Len(); j++ {
				n += canon.Tuple(j).Degree()
			}
			if n == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("4nf-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := dec.Reassemble(); r.Len() == 0 {
				b.Fatal("empty join")
			}
		}
	})
}

// ---- C3: storage footprint ----------------------------------------------

func BenchmarkStorageFootprint(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		sub := filepath.Join(dir, "run")
		if _, err := experiments.RunStorageFootprint(io.Discard, sub, 3, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations -------------------------------------------------------------

// Nest via hash grouping vs the literal pairwise definition.
func BenchmarkNestPairwiseVsGroup(b *testing.B) {
	r := benchRelation(400)
	b.Run("group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Nest(0)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.NestPairwise(0, nil)
		}
	})
}

// Candidate-tuple search: the paper's naive candt scan vs the
// posting-list index, as the relation grows (ablation).
func BenchmarkCandtScanVsIndex(b *testing.B) {
	for _, rows := range []int{100, 1000, 5000} {
		for _, indexed := range []bool{false, true} {
			name := sizeName(rows) + "/scan"
			if indexed {
				name = sizeName(rows) + "/index"
			}
			b.Run(name, func(b *testing.B) {
				s := schema.MustOf("A", "B", "C")
				var m *update.Maintainer
				var err error
				if indexed {
					m, err = update.NewMaintainerIndexed(s, schema.IdentityPerm(3))
				} else {
					m, err = update.NewMaintainer(s, schema.IdentityPerm(3))
				}
				if err != nil {
					b.Fatal(err)
				}
				// scale the value universe with size so the NFR tuple
				// count grows too (otherwise heavy grouping keeps the
				// naive scan artificially cheap)
				uni := rows / 8
				if uni < 12 {
					uni = 12
				}
				for _, f := range workload.GenUniform(11, rows, 3, uni).Expand() {
					if _, err := m.Insert(f); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(29))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := tuple.Flat{workloadAtom(rng, 2*rows), workloadAtom(rng, uni), workloadAtom(rng, uni)}
					if _, err := m.Insert(f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return string(rune('0'+n/1000)) + "k"
	default:
		return "0k1"
	}
}

// Set operations on the canonical sorted-slice representation.
func BenchmarkVSetOps(b *testing.B) {
	r := benchRelation(500)
	c, _ := r.Canonical(schema.IdentityPerm(3))
	sets := make([]vset.Set, 0, c.Len())
	for i := 0; i < c.Len(); i++ {
		sets = append(sets, c.Tuple(i).Set(2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sets[i%len(sets)]
		bb := sets[(i+1)%len(sets)]
		_ = a.Union(bb)
		_ = a.Intersect(bb)
		_ = a.Equal(bb)
	}
}

// Tuple codec throughput.
func BenchmarkEncodeTuple(b *testing.B) {
	r := benchRelation(100)
	c, _ := r.Canonical(schema.IdentityPerm(3))
	t0 := c.Tuple(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := encoding.EncodeTuple(t0)
		if _, _, err := encoding.DecodeTuple(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Heap insert throughput (storage engine).
func BenchmarkHeapInsert(b *testing.B) {
	pg, err := storage.OpenPager(filepath.Join(b.TempDir(), "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer pg.Close()
	bp, err := storage.NewBufferPool(pg, 64)
	if err != nil {
		b.Fatal(err)
	}
	h, err := storage.CreateHeap(bp, nil)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(nil, rec); err != nil {
			b.Fatal(err)
		}
	}
}
