package update

import "testing"

// BenchmarkMaintainerApply is one steady-state autocommit write through
// the indexed maintainer alone (no sink): 600 students loaded, then
// one-op Apply batches alternating insert-next / delete-oldest. dense
// is nfr-spine's embed_write population, sparse its wire_mixed one.
func BenchmarkMaintainerApply(b *testing.B) {
	for _, sh := range []enrollShape{denseShape, sparseShape} {
		b.Run(sh.name, func(b *testing.B) {
			c := newChurn(sh, 600, 1)
			m, err := NewMaintainerIndexed(enrollSchema, enrollOrder)
			if err != nil {
				b.Fatal(err)
			}
			m.Apply(c.initial())
			m.ResetStats()
			ops := make([]Op, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops[0] = c.next(i)
				if res := m.Apply(ops); !res[0].Changed {
					b.Fatalf("op %d %+v changed nothing", i, ops[0])
				}
			}
			b.ReportMetric(float64(m.Stats().CandidateScans)/float64(b.N), "scans/op")
		})
	}
}
