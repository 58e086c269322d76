package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/encoding"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/update"
	"repro/internal/value"
	"repro/internal/workload"
)

// A4Row is one row of the Theorem A-4 update-cost table.
type A4Row struct {
	Rows      int // |R*| before the measured updates
	Degree    int
	NFRTuples int
	MaxOps    int // worst-case compositions+decompositions per update
	MeanOps   float64
}

// RunTheoremA4 measures the cost (compositions + decompositions) of
// single-tuple inserts and deletes while sweeping (a) the relation
// size at fixed degree and (b) the degree at fixed size. Theorem A-4
// predicts the per-update cost depends on the degree only.
func RunTheoremA4(w io.Writer, sizes []int, degrees []int, probes int, seed int64) (bySize, byDegree []A4Row) {
	measure := func(rows, deg int) A4Row {
		rng := rand.New(rand.NewSource(seed + int64(rows*31+deg)))
		names := make([]string, deg)
		for i := range names {
			names[i] = fmt.Sprintf("A%d", i+1)
		}
		s := schema.MustOf(names...)
		m, err := update.NewMaintainer(s, schema.IdentityPerm(deg))
		if err != nil {
			panic(err)
		}
		gen := func() tuple.Flat {
			f := make(tuple.Flat, deg)
			// first attribute keyed to size so groups shrink relative
			// to the relation; rest from small pools to force grouping
			f[0] = value.NewInt(int64(rng.Intn(rows/2 + 1)))
			for j := 1; j < deg; j++ {
				f[j] = value.NewInt(int64(rng.Intn(6)))
			}
			return f
		}
		for i := 0; i < rows; i++ {
			if _, err := m.Insert(gen()); err != nil {
				panic(err)
			}
		}
		row := A4Row{Rows: rows, Degree: deg, NFRTuples: m.Len()}
		total := 0
		for i := 0; i < probes; i++ {
			m.ResetStats()
			f := gen()
			if i%3 == 2 {
				if _, err := m.Delete(f); err != nil {
					panic(err)
				}
			} else {
				if _, err := m.Insert(f); err != nil {
					panic(err)
				}
			}
			ops := m.Stats().Compositions + m.Stats().Decompositions
			total += ops
			if ops > row.MaxOps {
				row.MaxOps = ops
			}
		}
		row.MeanOps = float64(total) / float64(probes)
		return row
	}

	fmt.Fprintln(w, "Theorem A-4 — per-update cost (compositions+decompositions)")
	fmt.Fprintln(w, "sweep |R| at degree 3:")
	fmt.Fprintf(w, "  %10s %10s %10s %10s\n", "|R*|", "NFR", "max ops", "mean ops")
	for _, n := range sizes {
		r := measure(n, 3)
		bySize = append(bySize, r)
		fmt.Fprintf(w, "  %10d %10d %10d %10.2f\n", r.Rows, r.NFRTuples, r.MaxOps, r.MeanOps)
	}
	fmt.Fprintln(w, "sweep degree at |R*| = 400:")
	fmt.Fprintf(w, "  %10s %10s %10s %10s\n", "degree", "NFR", "max ops", "mean ops")
	for _, d := range degrees {
		r := measure(400, d)
		byDegree = append(byDegree, r)
		fmt.Fprintf(w, "  %10d %10d %10d %10.2f\n", r.Degree, r.NFRTuples, r.MaxOps, r.MeanOps)
	}
	return bySize, byDegree
}

// C1Row is one row of the compression table.
type C1Row struct {
	Workload    string
	FlatTuples  int
	NFRTuples   int
	Compression float64
}

// RunCompression measures the Section-2 claim that NFRs hold "much
// less tuples" than 1NF: flat vs canonical tuple counts across the
// workload family, using the dependency-derived nest order.
func RunCompression(w io.Writer, seed int64, scale int) []C1Row {
	var rows []C1Row
	add := func(name string, r *core.Relation, order schema.Permutation) {
		c, _ := r.Canonical(order)
		row := C1Row{Workload: name, FlatTuples: r.ExpansionSize(), NFRTuples: c.Len()}
		if row.NFRTuples > 0 {
			row.Compression = float64(row.FlatTuples) / float64(row.NFRTuples)
		}
		rows = append(rows, row)
	}
	e := workload.GenEnrollment(seed, workload.EnrollmentParams{
		Students: 40 * scale, CoursePool: 30, ClubPool: 8, SemesterPool: 6,
		CoursesPerStudent: 4, ClubsPerStudent: 2,
	})
	add("enrollment R1 (MVD)", e.R1, schema.MustPermOf(e.R1.Schema(), "Course", "Club", "Student"))
	add("enrollment R2 (no MVD)", e.R2, schema.MustPermOf(e.R2.Schema(), "Student", "Course", "Semester"))
	mv := workload.GenPlantedMVD(seed, workload.PlantedParams{
		Groups: 30 * scale, RhsPool: 12, MeanBlock: 3, Extra: 1, ExtraPool: 4,
	})
	add("planted MVD", mv, schema.MustPermOf(mv.Schema(), "E1", "E2", "X1", "F"))
	fd := workload.GenPlantedFD(seed, 100*scale, 2, 4)
	add("planted key FD", fd, schema.MustPermOf(fd.Schema(), "E1", "E2", "F"))
	un := workload.GenUniform(seed, 200*scale, 3, 8)
	add("uniform random", un, schema.IdentityPerm(3))
	zf := workload.GenZipf(seed, 200*scale, 3, 8)
	add("zipf-skewed", zf, schema.IdentityPerm(3))

	fmt.Fprintln(w, "C1 — tuple-count reduction (NFR canonical vs 1NF)")
	fmt.Fprintf(w, "  %-24s %10s %10s %12s\n", "workload", "1NF", "NFR", "compression")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10d %10d %11.2fx\n", r.Workload, r.FlatTuples, r.NFRTuples, r.Compression)
	}
	return rows
}

// C2Result compares answering the whole-relation query on an NFR
// versus reassembling a 4NF decomposition with joins.
type C2Result struct {
	FlatTuples      int
	NFRTuples       int
	NFRVisits       int // tuples visited scanning the NFR
	FragmentRows    int
	JoinRowsVisited int // intermediate rows materialized by the join
}

// RunNFRvsJoin exercises the paper's Section-5 conclusion: a schema
// kept as an NFR answers the full-relation query with a scan of its
// (few) tuples, while the 4NF decomposition must re-join its fragments.
func RunNFRvsJoin(w io.Writer, seed int64, students int) C2Result {
	e := workload.GenEnrollment(seed, workload.EnrollmentParams{
		Students: students, CoursePool: 30, ClubPool: 8, SemesterPool: 6,
		CoursesPerStudent: 4, ClubsPerStudent: 2,
	})
	order := schema.MustPermOf(e.R1.Schema(), "Course", "Club", "Student")
	canon, _ := e.R1.Canonical(order)

	mvds := []dep.MVD{dep.NewMVD([]string{"Student"}, []string{"Course"})}
	dec, err := baseline.NewDecomposed4NF(e.R1.Schema(), nil, mvds)
	if err != nil {
		panic(err)
	}
	for _, f := range e.R1.Expand() {
		dec.Insert(f)
	}
	joined, joinRows := dec.ReassembleCounted()
	if !joined.EquivalentTo(e.R1) {
		panic("experiments: join did not recover the relation")
	}
	res := C2Result{
		FlatTuples:      e.R1.ExpansionSize(),
		NFRTuples:       canon.Len(),
		NFRVisits:       canon.Len(),
		FragmentRows:    dec.FragmentRows(),
		JoinRowsVisited: joinRows,
	}
	fmt.Fprintln(w, "C2 — answering the whole relation: NFR scan vs 4NF join")
	fmt.Fprintf(w, "  1NF tuples:                 %d\n", res.FlatTuples)
	fmt.Fprintf(w, "  NFR tuples scanned:         %d\n", res.NFRVisits)
	fmt.Fprintf(w, "  4NF fragment rows:          %d\n", res.FragmentRows)
	fmt.Fprintf(w, "  join rows materialized:     %d\n", res.JoinRowsVisited)
	fmt.Fprintf(w, "  NFR advantage:              %.1fx fewer row visits\n",
		float64(res.JoinRowsVisited)/float64(maxInt(res.NFRVisits, 1)))
	return res
}

// C3Result compares on-disk footprint of NFR vs 1NF realization.
type C3Result struct {
	FlatRecords int
	FlatBytes   int
	FlatPages   int
	NFRRecords  int
	NFRBytes    int
	NFRPages    int
}

// RunStorageFootprint materializes the enrollment R1 both ways in the
// storage engine — one record per flat tuple vs one record per NFR
// tuple — and reports records, bytes, and pages: the "realization
// view" payoff.
func RunStorageFootprint(w io.Writer, dir string, seed int64, students int) (C3Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return C3Result{}, err
	}
	e := workload.GenEnrollment(seed, workload.EnrollmentParams{
		Students: students, CoursePool: 30, ClubPool: 8, SemesterPool: 6,
		CoursesPerStudent: 4, ClubsPerStudent: 2,
	})
	order := schema.MustPermOf(e.R1.Schema(), "Course", "Club", "Student")
	canon, _ := e.R1.Canonical(order)

	store := func(path string, rel *core.Relation) (storage.HeapStats, error) {
		pg, err := storage.OpenPager(path)
		if err != nil {
			return storage.HeapStats{}, err
		}
		defer pg.Close()
		wal, err := storage.OpenWAL(path+".wal", nil)
		if err != nil {
			return storage.HeapStats{}, err
		}
		defer os.Remove(path + ".wal")
		defer wal.Close()
		bp, err := storage.NewBufferPool(pg, 16)
		if err != nil {
			return storage.HeapStats{}, err
		}
		bp.AttachWAL(wal)
		txn := bp.Begin()
		h, err := storage.CreateHeap(bp, txn)
		if err != nil {
			return storage.HeapStats{}, err
		}
		for i := 0; i < rel.Len(); i++ {
			if _, err := h.Insert(txn, encoding.EncodeTuple(rel.Tuple(i))); err != nil {
				return storage.HeapStats{}, err
			}
		}
		if _, err := bp.CommitTxn(txn); err != nil {
			return storage.HeapStats{}, err
		}
		return h.Stats()
	}

	flatStats, err := store(filepath.Join(dir, "flat.db"), e.R1)
	if err != nil {
		return C3Result{}, err
	}
	nfrStats, err := store(filepath.Join(dir, "nfr.db"), canon)
	if err != nil {
		return C3Result{}, err
	}
	res := C3Result{
		FlatRecords: flatStats.LiveRecords, FlatBytes: flatStats.LiveBytes, FlatPages: flatStats.Pages,
		NFRRecords: nfrStats.LiveRecords, NFRBytes: nfrStats.LiveBytes, NFRPages: nfrStats.Pages,
	}
	fmt.Fprintln(w, "C3 — on-disk footprint (storage engine, 4 KiB pages)")
	fmt.Fprintf(w, "  %-14s %10s %12s %8s\n", "realization", "records", "bytes", "pages")
	fmt.Fprintf(w, "  %-14s %10d %12d %8d\n", "1NF", res.FlatRecords, res.FlatBytes, res.FlatPages)
	fmt.Fprintf(w, "  %-14s %10d %12d %8d\n", "NFR", res.NFRRecords, res.NFRBytes, res.NFRPages)
	fmt.Fprintf(w, "  byte reduction: %.2fx\n", float64(res.FlatBytes)/float64(maxInt(res.NFRBytes, 1)))
	return res, nil
}

// Artifact is one named piece of the paper's reproduction.
type Artifact struct {
	Name string
	Run  func(w io.Writer) error
}

// Artifacts is the whole reproduction in print order, each with the
// parameters the recorded tables were made with; cmd/nfr-repro looks
// its argument up here.
var Artifacts = []Artifact{
	{"fig1", func(w io.Writer) error { RunFig1(w); return nil }},
	{"fig2", func(w io.Writer) error { RunFig2(w); return nil }},
	{"ex1", func(w io.Writer) error { RunExample1(w); return nil }},
	{"ex2", func(w io.Writer) error { RunExample2(w); return nil }},
	{"ex3", func(w io.Writer) error { RunExample3(w); return nil }},
	{"fig3", func(w io.Writer) error { RunFig3(w, 400, 17); return nil }},
	{"t1", func(w io.Writer) error { RunTheorem1(w, 200, 19); return nil }},
	{"t2", func(w io.Writer) error { RunTheorem2(w, 120, 23); return nil }},
	{"t3", func(w io.Writer) error { RunTheorem3(w, 150, 29); return nil }},
	{"t4", func(w io.Writer) error { RunTheorem4(w, 60, 31); return nil }},
	{"t5", func(w io.Writer) error { RunTheorem5(w, 80, 37); return nil }},
	{"a4", func(w io.Writer) error {
		RunTheoremA4(w, []int{100, 300, 1000, 3000, 10000}, []int{2, 3, 4, 5, 6}, 60, 41)
		return nil
	}},
	{"c1", func(w io.Writer) error { RunCompression(w, 43, 4); return nil }},
	{"c2", func(w io.Writer) error { RunNFRvsJoin(w, 47, 250); return nil }},
	{"c3", func(w io.Writer) error {
		dir, err := os.MkdirTemp("", "nfr-c3")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		_, err = RunStorageFootprint(w, dir, 53, 250)
		return err
	}},
}

// RunAll prints every artifact, separated by rules.
func RunAll(w io.Writer) error {
	for i, a := range Artifacts {
		if i > 0 {
			fmt.Fprintln(w, "\n"+lineOf('=', 72)+"\n")
		}
		if err := a.Run(w); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

func lineOf(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
