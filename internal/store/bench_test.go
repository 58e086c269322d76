package store

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// The store layer's decision record for its index structure, quoted in
// docs/storage.md: one-row writes and point probes on a shard over an
// in-memory file, so the numbers are CPU and log pages, not the device.

// benchShard fills shard 0 of testDef's relation with n tuples
// (student(i), c<i>, b), runs loop under the timer and reports the log
// pages and bytes it appended per op.
func benchShard(b *testing.B, n int, student func(i int) string, loop func(st *Store, sh *Shard)) {
	fs := newMemFS()
	st, err := Open("db", Options{OpenFile: fs.open, RemoveFile: fs.remove})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Discard()
	def := testDef(b)
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, def)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tp := tupleOf([][]string{{fmt.Sprintf("c%04d", i)}, {"b"}, {student(i)}}, def.Order)
		if err := rs.Insert(txn, tp); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before := st.WALStats()
	b.ResetTimer()
	loop(st, rs.Shard(0))
	b.StopTimer()
	after := st.WALStats()
	b.ReportMetric(float64(after.PagesLogged-before.PagesLogged)/float64(b.N), "logpages/op")
	b.ReportMetric(float64(after.BytesLogged-before.BytesLogged)/float64(b.N), "logB/op")
}

func distinctStudent(i int) string { return fmt.Sprintf("s%04d", i) }

// BenchmarkShardInsertRemove: one op is one committed one-row write,
// alternately the insert of a tuple and its removal. In "fixed" every
// stored tuple has its own fixed atom (the shape the default nest order
// produces); in "skew64" the toggled tuple shares its fixed atom with
// 64 stored ones, so the victim lookup has 65 candidates.
func BenchmarkShardInsertRemove(b *testing.B) {
	for _, skew := range []bool{false, true} {
		name, student, toggled := "fixed", distinctStudent, "s9999"
		if skew {
			name, student = "skew64", func(int) string { return toggled }
		}
		b.Run(name, func(b *testing.B) {
			benchShard(b, 64, student, func(st *Store, sh *Shard) {
				tp := tupleOf([][]string{{"cx"}, {"b"}, {toggled}}, sh.def.Order)
				for i := 0; i < b.N; i++ {
					txn := st.Begin()
					write := sh.Insert
					if i%2 == 1 {
						write = sh.Remove
					}
					if err := write(txn, tp); err != nil {
						b.Fatal(err)
					}
					if err := st.Commit(txn); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkShardLookupFixed: one op is one point probe by fixed atom
// into 1024 tuples, each with its own.
func BenchmarkShardLookupFixed(b *testing.B) {
	probes := make([]value.Atom, 1024)
	for i := range probes {
		probes[i] = value.NewString(distinctStudent(i * 7 % 1024))
	}
	benchShard(b, 1024, distinctStudent, func(_ *Store, sh *Shard) {
		for i := 0; i < b.N; i++ {
			probe := probes[i%len(probes)]
			hits, err := sh.LookupFixed(probe)
			if err != nil || len(hits) != 1 {
				b.Fatalf("probe %v: %d hits, %v", probe, len(hits), err)
			}
		}
	})
}
