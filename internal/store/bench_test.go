package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/encoding"
	"repro/internal/storage/crashfs"
	"repro/internal/value"
)

// The store layer's decision record for its index structure, quoted in
// docs/storage.md: one-row writes and point probes on a shard over an
// in-memory file, so the numbers are CPU and log pages, not the device.

// benchShard fills shard 0 of testDef's relation with n tuples
// (student(i), c<i>, b), runs loop under the timer and reports the log
// pages and bytes it appended per op.
func benchShard(b *testing.B, n int, student func(i int) string, loop func(st *Store, sh *Shard)) {
	fs := crashfs.New(nil)
	st, err := Open("db", Options{OpenFile: fs.Open, RemoveFile: fs.Remove})
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
			key := encoding.AppendOrderedAtom(nil, probe)
			hits, _, err := sh.fetchRange(nil, key, true, key, true, nil)
			if err != nil || len(hits) != 1 {
				b.Fatalf("probe %v: %d hits, %v", probe, len(hits), err)
			}
		}
	})
}

// BenchmarkRecoverOpen prices crash recovery at the store layer: one op
// is one Open of a crash image on an in-memory file whose log holds 500
// committed one-row batches and no checkpoint (redo, the LSN gate and
// the orphan sweep). Copying the image and closing the store are not
// timed. syncs/op and truncates/op count the fsyncs and truncates Open
// made on both files.
func BenchmarkRecoverOpen(b *testing.B) {
	const batches = 500
	fs := crashfs.New(nil)
	def := closedPaddedDB(b, Options{OpenFile: fs.Open, RemoveFile: fs.Remove}, 'b', 4)
	st, err := Open("db", Options{OpenFile: fs.Open, RemoveFile: fs.Remove, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	rs, _ := st.Rel(def.Name)
	for i := 0; i < batches; i++ {
		txn := st.Begin()
		tp := tupleOf([][]string{{fmt.Sprintf("c%04d", i)}, {"b"}, {distinctStudent(i)}}, def.Order)
		if err := rs.Insert(txn, tp); err != nil {
			b.Fatal(err)
		}
		if err := st.Commit(txn); err != nil {
			b.Fatal(err)
		}
	}
	image := fs.Snapshot()
	st.Discard()

	var ops fileOps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		files := make(map[string][]byte, len(image))
		for name, body := range image {
			files[name] = bytes.Clone(body)
		}
		rfs := crashfs.New(files)
		cfs := countOps(rfs.Open)
		b.StartTimer()
		rst, err := Open("db", Options{OpenFile: cfs.Open, RemoveFile: rfs.Remove, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := rst.RecoveryReport().Log.RecoveredBatches; got != batches {
			b.Fatalf("recovered %d batches, the image holds %d", got, batches)
		}
		rst.Discard()
		for _, o := range cfs.take() {
			ops.syncs += o.syncs
			ops.truncates += o.truncates
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(ops.syncs)/float64(b.N), "syncs/op")
	b.ReportMetric(float64(ops.truncates)/float64(b.N), "truncates/op")
}
