package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
)

// The enrollment relation of the paper's Section 2, R1[Student, Course,
// Club] with Student ->-> Course | Club, nested (Course, Club, Student)
// so the canonical form is fixed on Student and both durable indexes
// key on it.
var (
	enrollSchema = schema.MustOf("Student", "Course", "Club")
	enrollOrder  = schema.MustPermOf(enrollSchema, "Course", "Club", "Student")
)

// shape sizes one enrollment population. It mirrors
// workload.EnrollmentParams, but the per-student set sizes cycle
// through 1..MaxCourses × 1..MaxClubs instead of being drawn at random:
// the seed then picks WHICH courses and clubs a student has, not how
// many, so every seed loads the same number of rows and of NFR tuples.
// With random sizes the row count alone spreads 4 % between seeds.
type shape struct {
	Students   int
	CoursePool int
	ClubPool   int
	MaxCourses int
	MaxClubs   int
}

func studentName(i int) string { return fmt.Sprintf("s%05d", i) }

// genStudent returns student i's flats: the product of its courses and
// clubs, so the MVD holds by construction.
func genStudent(rng *rand.Rand, sh shape, i int) []tuple.Flat {
	nc := 1 + i%sh.MaxCourses
	nb := 1 + (i/sh.MaxCourses)%sh.MaxClubs
	if nc > sh.CoursePool {
		nc = sh.CoursePool
	}
	if nb > sh.ClubPool {
		nb = sh.ClubPool
	}
	courses := rng.Perm(sh.CoursePool)[:nc]
	clubs := rng.Perm(sh.ClubPool)[:nb]
	name := studentName(i)
	out := make([]tuple.Flat, 0, nc*nb)
	for _, c := range courses {
		for _, b := range clubs {
			out = append(out, tuple.FlatOfStrings(name, fmt.Sprintf("c%03d", c), fmt.Sprintf("b%02d", b)))
		}
	}
	return out
}

// genStudents returns the flats of students [first, first+n), student
// by student.
func genStudents(rng *rand.Rand, sh shape, first, n int) []tuple.Flat {
	var out []tuple.Flat
	for i := 0; i < n; i++ {
		out = append(out, genStudent(rng, sh, first+i)...)
	}
	return out
}

// ring is the write churn of one client: the live rows are the window
// [head, tail) over a circular list of flats twice the window's size.
// Insert takes the next unseen flat, delete the oldest live one, so the
// relation keeps its size and shape for as long as the run lasts.
type ring struct {
	flats      []tuple.Flat
	head, tail int
}

func newRing(flats []tuple.Flat) *ring { return &ring{flats: flats, tail: len(flats) / 2} }

func (r *ring) initial() []tuple.Flat { return r.flats[:len(r.flats)/2] }

func (r *ring) insert() tuple.Flat {
	f := r.flats[r.tail%len(r.flats)]
	r.tail++
	return f
}

func (r *ring) delete() tuple.Flat {
	f := r.flats[r.head%len(r.flats)]
	r.head++
	return f
}

func (r *ring) live() []tuple.Flat {
	out := make([]tuple.Flat, 0, r.tail-r.head)
	for i := r.head; i < r.tail; i++ {
		out = append(out, r.flats[i%len(r.flats)])
	}
	return out
}

// canonicalOf nests flats from scratch into V_P: the oracle every
// end-state check compares the engine's incremental result with.
func canonicalOf(flats []tuple.Flat) *core.Relation {
	rel := core.NewRelation(enrollSchema)
	for _, f := range flats {
		rel.Add(tuple.FromFlat(f))
	}
	canon, _ := rel.CanonicalFromFlats(enrollOrder)
	return canon
}

// Statement classes of the read mixes.
const (
	classPoint = iota
	classRange
	classScan
	classWrite
	classTx
	numClasses
)

var classNames = [numClasses]string{"point", "range", "scan", "write", "tx"}

// stmt is one generated statement and what the oracles need to judge
// its answer.
type stmt struct {
	text    string
	class   int
	student int        // point: the probed student
	lo, hi  int        // range: the students [lo, hi)
	desc    bool       // range: ORDER BY Student DESC
	f       tuple.Flat // write: the row
	del     bool       // write: DELETE
}

func pointStmt(rel string, student int) stmt {
	return stmt{class: classPoint, student: student,
		text: fmt.Sprintf("SELECT * FROM %s WHERE Student = %s", rel, studentName(student))}
}

func writeStmt(rel string, f tuple.Flat, del bool) stmt {
	st := stmt{class: classWrite, f: f, del: del, text: insertText(rel, f)}
	if del {
		st.text = deleteText(rel, f)
	}
	return st
}

// readMix draws the read statements of embed_read and wire_mixed over
// the students [base, base+n) of relation rel.
type readMix struct {
	rel     string
	base, n int
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int // zipf rank -> student, so hot keys are spread over the file
	courses int
	ranges  int // range statements drawn so far (every 5th sorts descending)
}

func newReadMix(rel string, base, n, courses int, seed int64) *readMix {
	rng := rand.New(rand.NewSource(seed))
	return &readMix{
		rel: rel, base: base, n: n, rng: rng, courses: courses,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)),
		perm: rng.Perm(n),
	}
}

func (m *readMix) point() stmt {
	return pointStmt(m.rel, m.base+m.perm[m.zipf.Uint64()])
}

const rangeWindow = 20

func (m *readMix) rangeScan() stmt {
	lo := m.base + m.rng.Intn(m.n-rangeWindow)
	st := stmt{class: classRange, lo: lo, hi: lo + rangeWindow}
	st.text = fmt.Sprintf("SELECT FLAT * FROM %s WHERE Student >= %s AND Student < %s",
		m.rel, studentName(st.lo), studentName(st.hi))
	m.ranges++
	if m.ranges%5 == 0 {
		st.desc = true
		st.text += " ORDER BY Student DESC"
	}
	return st
}

func (m *readMix) heapScan() stmt {
	c := fmt.Sprintf("c%03d", m.rng.Intn(m.courses))
	return stmt{class: classScan, text: fmt.Sprintf("SELECT * FROM %s WHERE Course CONTAINS %s", m.rel, c)}
}

func insertText(rel string, f tuple.Flat) string {
	return fmt.Sprintf("INSERT INTO %s VALUES (%s, %s, %s)", rel, f[0].S, f[1].S, f[2].S)
}

func deleteText(rel string, f tuple.Flat) string {
	return fmt.Sprintf("DELETE FROM %s VALUES (%s, %s, %s)", rel, f[0].S, f[1].S, f[2].S)
}

// streamHash fingerprints the first n ops of a workload's stream (as
// rendered by describe) so a test can hold that a seed fixes the inputs.
func streamHash(n int, describe func(i int) string) string {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(describe(i)))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
