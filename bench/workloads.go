package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	nfr "repro"
	"repro/client"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/update"
	"repro/internal/value"
)

// The two populations. dense is the paper's Section-2 shape: few
// courses and clubs, so many students share each one and the candidate
// scan of an update is long. sparse has pools so large that a student's
// tuple shares atoms with almost nobody.
var (
	dense  = shape{CoursePool: 30, ClubPool: 8, MaxCourses: 8, MaxClubs: 4}
	sparse = shape{CoursePool: 600, ClubPool: 80, MaxCourses: 4, MaxClubs: 2}
)

func sized(sh shape, students, override int) shape {
	sh.Students = students
	if override > 0 {
		sh.Students = override
	}
	return sh
}

func enrollDef(name string, shards int) engine.RelationDef {
	return engine.RelationDef{Name: name, Schema: enrollSchema, Order: enrollOrder, Shards: shards}
}

func createAndLoad(db *engine.Database, def engine.RelationDef, flats []tuple.Flat) error {
	if err := db.Create(def); err != nil {
		return err
	}
	return bulkLoad(db, def.Name, flats)
}

// tracedStmt is one statement of the traced run with the answer it got.
type tracedStmt struct {
	stmt
	msg string
	rel *core.Relation
	rtt time.Duration // client round trip (wire_mixed)
}

// recorder keeps what the traced run did, for the layer replays.
type recorder struct {
	logs  map[string]*relLog
	stmts []tracedStmt
}

func (r *recorder) start(initial map[string][]tuple.Flat) {
	r.logs = make(map[string]*relLog)
	for name, flats := range initial {
		r.logs[name] = &relLog{name: name, initial: flats}
	}
	r.stmts = nil
}

func (r *recorder) write(rel string, f tuple.Flat, del bool) {
	r.logs[rel].ops = append(r.logs[rel].ops, update.Op{F: f, Delete: del})
}

func (r *recorder) relLogs() []relLog {
	var out []relLog
	for _, name := range []string{"R1", "R4"} {
		if l, ok := r.logs[name]; ok {
			out = append(out, *l)
		}
	}
	return out
}

// rowModel is the cheap oracle every read is held against, timed window
// included: how many rows each student has right now. The statement
// mixes only ask about students, so a result's flat-row count is known
// without evaluating anything.
type rowModel []int

func newRowModel(students int, flats []tuple.Flat) rowModel {
	m := make(rowModel, students)
	for _, f := range flats {
		m[studentIndex(f)]++
	}
	return m
}

func studentIndex(f tuple.Flat) int {
	n, _ := strconv.Atoi(f[0].S[1:])
	return n
}

func (m rowModel) book(f tuple.Flat, del bool) {
	if del {
		m[studentIndex(f)]--
	} else {
		m[studentIndex(f)]++
	}
}

// rows is how many flat rows a point or range read's answer must hold
// (a heap scan on Course is held against the full oracle only).
func (m rowModel) rows(st stmt) int {
	if st.class == classPoint {
		return m[st.student]
	}
	n := 0
	for i := st.lo; i < st.hi; i++ {
		n += m[i]
	}
	return n
}

// checkRead holds a SELECT's answer against the row model.
func (m rowModel) checkRead(st stmt, rel *core.Relation) error {
	if rel == nil {
		return fmt.Errorf("%s: no relation returned", st.text)
	}
	got, want := rel.ExpansionSize(), m.rows(st)
	switch st.class {
	case classPoint:
		// in the dense shape the NFR tuples that hold the student hold
		// others too, so the student's own rows are a floor
		if got < want || (want == 0) != (got == 0) {
			return fmt.Errorf("%s: %d rows, the student has %d", st.text, got, want)
		}
	case classRange:
		if got != want {
			return fmt.Errorf("%s: %d rows, want %d", st.text, got, want)
		}
		for i := 1; st.desc && i < rel.Len(); i++ {
			if value.Compare(rel.Tuple(i - 1).Set(0).Atoms()[0], rel.Tuple(i).Set(0).Atoms()[0]) < 0 {
				return fmt.Errorf("%s: rows %d and %d are not in descending order", st.text, i-1, i)
			}
		}
	}
	return nil
}

// oracle is the full check of the traced run: the same rows, kept in
// canonical form in memory, answer the statement's predicate through
// the algebra alone (no planner, no index, no page), and the two
// answers must be the same set of tuples.
//
// A partial oracle holds only some of the relation's students (one
// wire_mixed connection's block). The engine nests students of any
// block that share a course set and a club set into one tuple, so a
// nested answer may carry other students' rows; both answers are then
// cut down to the flat rows that satisfy the predicate, which only the
// oracle's own students decide, before they are compared.
type oracle struct {
	m       *update.Maintainer
	partial bool
}

func newOracle(flats []tuple.Flat, partial bool) (*oracle, error) {
	m, err := update.FromRelationIndexed(canonicalOf(flats), enrollOrder)
	return &oracle{m, partial}, err
}

func (o *oracle) check(text string, got *core.Relation) error {
	parsed, err := query.Parse(text)
	if err != nil {
		return err
	}
	st := parsed.(query.SelectStmt)
	// The tuples first, then, for a flat answer, their rows: the mixes'
	// predicates are conjunctions of any-comparisons, so a row that
	// satisfies one lies in a tuple that does, and only those tuples
	// need expanding.
	want, err := algebra.Select(o.m.Relation(), st.Where)
	if err == nil && (st.Flat || o.partial) {
		want, err = algebra.SelectFlat(want, st.Where, enrollOrder)
	}
	if err == nil && o.partial {
		got, err = algebra.SelectFlat(got, st.Where, enrollOrder)
	}
	if err != nil {
		return fmt.Errorf("oracle: %s: %w", text, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%s: %d tuples over %d rows, the oracle has %d over %d", text,
			got.Len(), got.ExpansionSize(), want.Len(), want.ExpansionSize())
	}
	return nil
}

// ---------------------------------------------------------------------
// embed_write

// embedWrite: one embedded client, autocommit db.Insert / db.Delete
// 50/50 on the dense shape, which fits the pool.
type embedWrite struct {
	idle
	sh   shape
	ring *ring
	rec  recorder
}

func (w *embedWrite) spec() spec {
	return spec{name: "embed_write", clients: 1, poolPages: 256, warmOps: 360, traceOps: 1440, slices: 15,
		written: []string{"R1"}, shards: map[string]int{"R1": 1}}
}

func (w *embedWrite) gen(seed int64, students int) {
	w.sh = sized(dense, 600, students)
	rng := rand.New(rand.NewSource(seed))
	w.ring = newRing(genStudents(rng, w.sh, 0, 2*w.sh.Students))
}

func (w *embedWrite) load(db *engine.Database) (int, error) {
	return len(w.ring.initial()), createAndLoad(db, enrollDef("R1", 0), w.ring.initial())
}

func (w *embedWrite) traceBegin(h *harness) error {
	w.rec.start(map[string][]tuple.Flat{"R1": w.ring.live()})
	return nil
}

func (w *embedWrite) op(h *harness, c, i int) (time.Duration, error) {
	del := i%2 == 1
	var f tuple.Flat
	if del {
		f = w.ring.delete()
	} else {
		f = w.ring.insert()
	}
	if h.tr != nil {
		w.rec.write("R1", f, del)
	}
	h.tr.push("op", i)
	h.tr.push("engine.stmt", i)
	var changed bool
	var err error
	t0 := time.Now()
	if del {
		changed, err = h.db.Delete("R1", f)
	} else {
		changed, err = h.db.Insert("R1", f)
	}
	d := time.Since(t0)
	h.tr.pop()
	h.tr.pop()
	if err == nil && !changed {
		err = fmt.Errorf("statement on %v changed nothing", f)
	}
	return d, err
}

func (w *embedWrite) describe(i int) string {
	if i%2 == 1 {
		return deleteText("R1", w.ring.delete())
	}
	return insertText("R1", w.ring.insert())
}

func (w *embedWrite) expected() map[string][]tuple.Flat {
	return map[string][]tuple.Flat{"R1": w.ring.live()}
}

func (w *embedWrite) logs() []relLog { return w.rec.relLogs() }

// ---------------------------------------------------------------------
// embed_read

// embedRead: one embedded query.Session over a relation five times the
// pool. The class of op i is fixed by i, so every window holds exactly
// 90 % point probes and 10 % range scans and the percentiles sit inside
// one class each: p50 is a point probe, p95 a range scan.
type embedRead struct {
	idle
	sh    shape
	flats []tuple.Flat
	mix   *readMix
	model rowModel
	sess  *query.Session
	orc   *oracle
	rec   recorder
}

func (w *embedRead) spec() spec {
	return spec{name: "embed_read", clients: 1, poolPages: 32, warmOps: 2000, traceOps: 3000, slices: 15, readRel: "R1"}
}

func (w *embedRead) gen(seed int64, students int) {
	w.sh = sized(sparse, 4000, students)
	rng := rand.New(rand.NewSource(seed))
	w.flats = genStudents(rng, w.sh, 0, w.sh.Students)
	w.mix = newReadMix("R1", 0, w.sh.Students, w.sh.CoursePool, seed+1)
	w.model = newRowModel(w.sh.Students, w.flats)
}

func (w *embedRead) load(db *engine.Database) (int, error) {
	return len(w.flats), createAndLoad(db, enrollDef("R1", 0), w.flats)
}

func (w *embedRead) begin(h *harness) error {
	w.sess = query.NewSessionOn(h.db)
	return nil
}

func (w *embedRead) end(h *harness) error { return w.sess.Close() }

func (w *embedRead) traceBegin(h *harness) (err error) {
	w.rec.start(nil)
	w.orc, err = newOracle(w.flats, false)
	return err
}

// next draws op i's statement.
func (w *embedRead) next(i int) stmt {
	switch {
	case i%1000 == 999:
		return w.mix.heapScan()
	case i%10 == 9:
		return w.mix.rangeScan()
	}
	return w.mix.point()
}

func (w *embedRead) op(h *harness, c, i int) (time.Duration, error) {
	st := w.next(i)
	h.tr.push("op", i)
	h.tr.push("query.exec."+classNames[st.class], i)
	t0 := time.Now()
	res, err := w.sess.Exec(st.text)
	d := time.Since(t0)
	h.tr.pop()
	h.tr.pop()
	if err != nil {
		return d, err
	}
	if err := w.model.checkRead(st, res.Relation); err != nil {
		return d, err
	}
	if h.tr != nil {
		w.rec.stmts = append(w.rec.stmts, tracedStmt{stmt: st, rel: res.Relation})
		return d, w.orc.check(st.text, res.Relation)
	}
	return d, nil
}

func (w *embedRead) describe(i int) string { return w.next(i).text }

func (w *embedRead) expected() map[string][]tuple.Flat {
	return map[string][]tuple.Flat{"R1": w.flats}
}

func (w *embedRead) reads() []tracedStmt { return w.rec.stmts }

// ---------------------------------------------------------------------
// wire_mixed

// The statement classes of one wire_mixed connection repeat every 60
// ops: 36 point SELECTs and 9 range SELECTs on R1, 9 autocommit writes
// on the 4-shard R4, and one BEGIN + 4 writes on R1 + COMMIT.
const (
	wireCycle   = 60
	wireTxStart = 54
)

func wireClass(i int) int {
	k := i % wireCycle
	switch {
	case k >= wireTxStart:
		return classTx
	case k%6 == 4:
		return classRange
	case k%6 == 5:
		return classWrite
	}
	return classPoint
}

// wireConn is one connection's private world: its block of R1 students
// (the last tenth of which churns under its transactions), its block of
// R4 students, and its read mix over its own R1 block. No connection
// reads or writes another's students, so the expected state, and the
// rows every answer must hold for the students it asked about, are
// independent of how the two interleave. (A nested answer's tuples are
// not: see oracle.)
type wireConn struct {
	cl     *client.Client
	r1     []tuple.Flat // static rows of its R1 block
	r1ring *ring        // the churning tail of the block
	r4ring *ring
	mix    *readMix
	model  rowModel // rows per R1 student (indexed by global student number)
	orc    *oracle
	writes int // R4 writes so far (even: insert)

	// the open transaction: its statements and the next one to send
	plan []stmt
	at   int

	rec recorder
}

type wireMixed struct {
	idle
	r1, r4 shape
	conns  []*wireConn
	srv    *server.Server
	served chan error
}

func (w *wireMixed) spec() spec {
	return spec{name: "wire_mixed", clients: 2, poolPages: 32, warmOps: 600, traceOps: 1200, slices: 15, readRel: "R1",
		written: []string{"R1", "R4"}, shards: map[string]int{"R1": 1, "R4": 4}}
}

func (w *wireMixed) gen(seed int64, students int) {
	w.r1 = sized(sparse, 3000, students)
	w.r4 = sized(sparse, 1500, students/2)
	n := w.spec().clients
	per1, per4 := w.r1.Students/n, w.r4.Students/n
	churn := per1 / 10
	if churn < 2 {
		churn = 2
	}
	w.conns = make([]*wireConn, n)
	for c := range w.conns {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		base := c * per1
		static := genStudents(rng, w.r1, base, per1-churn)
		// ring students are numbered inside the block; the ring holds
		// twice the churning tail's rows so half are live at a time
		tail := genStudents(rng, w.r1, base+per1-churn, churn)
		spare := genStudents(rng, w.r1, base+per1-churn, churn)
		cn := &wireConn{
			r1:     static,
			r1ring: newRing(dedupe(append(tail, spare...))),
			r4ring: newRing(genStudents(rng, w.r4, c*per4*2, 2*per4)),
			mix:    newReadMix("R1", base, per1, w.r1.CoursePool, seed*1000+100+int64(c)),
		}
		cn.model = newRowModel(w.r1.Students, append(append([]tuple.Flat(nil), cn.r1...), cn.r1ring.initial()...))
		w.conns[c] = cn
	}
}

// dedupe drops repeated flats, keeping first occurrences in order.
func dedupe(flats []tuple.Flat) []tuple.Flat {
	seen := make(map[string]bool, len(flats))
	out := flats[:0]
	for _, f := range flats {
		if k := f.Key(); !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

func (w *wireMixed) load(db *engine.Database) (int, error) {
	var r1, r4 []tuple.Flat
	for _, cn := range w.conns {
		r1 = append(append(r1, cn.r1...), cn.r1ring.initial()...)
		r4 = append(r4, cn.r4ring.initial()...)
	}
	if err := createAndLoad(db, enrollDef("R1", 0), r1); err != nil {
		return 0, err
	}
	return len(r1) + len(r4), createAndLoad(db, enrollDef("R4", 4), r4)
}

func (w *wireMixed) begin(h *harness) error {
	w.srv = server.New(h.db, server.Config{MaxConns: len(w.conns)})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(lis) }()
	for _, cn := range w.conns {
		if cn.cl, err = client.Dial(lis.Addr().String()); err != nil {
			return err
		}
	}
	return nil
}

func (w *wireMixed) traceBegin(h *harness) error {
	for _, cn := range w.conns {
		r1 := append(append([]tuple.Flat(nil), cn.r1...), cn.r1ring.live()...)
		cn.rec.start(map[string][]tuple.Flat{"R1": r1, "R4": cn.r4ring.live()})
		var err error
		if cn.orc, err = newOracle(r1, true); err != nil {
			return err
		}
	}
	return nil
}

func (w *wireMixed) end(h *harness) error {
	for _, cn := range w.conns {
		cn.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-w.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	return nil
}

// planTx draws the next transaction: two inserts and two deletes on the
// connection's churning R1 students.
func (cn *wireConn) planTx() {
	cn.plan = []stmt{{class: classTx, text: "BEGIN"}}
	for k := 0; k < 4; k++ {
		var st stmt
		if k%2 == 0 {
			st = writeStmt("R1", cn.r1ring.insert(), false)
		} else {
			st = writeStmt("R1", cn.r1ring.delete(), true)
		}
		st.class = classTx
		cn.plan = append(cn.plan, st)
	}
	cn.plan = append(cn.plan, stmt{class: classTx, text: "COMMIT"})
	cn.at = 0
}

// draw returns the connection's next statement, advancing its
// generators. Once a transaction is planned its statements go out back
// to back, whatever class op i would have had: after a wait-die retry
// the transaction no longer sits in the cycle's six slots.
func (cn *wireConn) draw(i int) stmt {
	if cn.plan != nil {
		return cn.plan[cn.at]
	}
	switch wireClass(i) {
	case classPoint:
		return cn.mix.point()
	case classRange:
		return cn.mix.rangeScan()
	case classWrite:
		cn.writes++
		if cn.writes%2 == 1 {
			return writeStmt("R4", cn.r4ring.insert(), false)
		}
		return writeStmt("R4", cn.r4ring.delete(), true)
	}
	cn.planTx()
	return cn.plan[0]
}

// acked moves past the transaction statement just answered. When that
// was the COMMIT it closes the plan and returns its statements.
func (cn *wireConn) acked() []stmt {
	if cn.at++; cn.at < len(cn.plan) {
		return nil
	}
	done := cn.plan
	cn.plan = nil
	return done
}

func (w *wireMixed) op(h *harness, c, i int) (time.Duration, error) {
	cn := w.conns[c]
	st := cn.draw(i)
	start := h.tr.now()
	t0 := time.Now()
	res, err := cn.cl.Exec(context.Background(), st.text)
	d := time.Since(t0)
	h.tr.record("op", start, h.tr.now(), i*len(w.conns)+c)

	if st.class == classTx && errors.Is(err, nfr.ErrTxConflict) {
		// wait-die refused a latch: not a failure, the same transaction
		// starts over
		h.conflicts.Add(1)
		cn.at = 0
		_, err = cn.cl.Exec(context.Background(), "ROLLBACK")
		return d, err
	}
	if err == nil && st.f != nil {
		err = checkWrite(st, res.Message)
	}
	if err != nil {
		if cn.plan != nil {
			// the transaction is given up, so the run can end; its rows
			// are now wrong and the end-state check will say so too
			cn.plan = nil
			_, _ = cn.cl.Exec(context.Background(), "ROLLBACK") // the op has failed already
		}
		return d, err
	}
	if h.tr != nil {
		cn.rec.stmts = append(cn.rec.stmts, tracedStmt{stmt: st, msg: res.Message, rel: res.Relation, rtt: d})
	}
	switch st.class {
	case classPoint, classRange:
		if err := cn.model.checkRead(st, res.Relation); err != nil {
			return d, err
		}
		if h.tr != nil {
			return d, cn.orc.check(st.text, res.Relation)
		}
	case classWrite:
		if h.tr != nil {
			cn.rec.write("R4", st.f, st.del)
		}
	case classTx:
		// once COMMIT is acknowledged the writes are what a read on
		// this connection must see
		for _, p := range cn.acked() {
			if p.f != nil {
				cn.book(h, p)
			}
		}
	}
	return d, nil
}

// checkWrite holds a one-row write's acknowledgement to "one row
// changed".
func checkWrite(st stmt, msg string) error {
	want := "inserted 1 tuple(s) into "
	if st.del {
		want = "deleted 1 tuple(s) from "
	}
	if !strings.HasPrefix(msg, want) {
		return fmt.Errorf("%s: answered %q", st.text, msg)
	}
	return nil
}

// book applies a committed R1 write to the connection's oracles.
func (cn *wireConn) book(h *harness, st stmt) {
	cn.model.book(st.f, st.del)
	if h.tr == nil {
		return
	}
	cn.rec.write("R1", st.f, st.del)
	if st.del {
		cn.orc.m.Delete(st.f)
	} else {
		cn.orc.m.Insert(st.f)
	}
}

func (w *wireMixed) describe(i int) string {
	st := w.conns[0].draw(i)
	if st.class == classTx {
		w.conns[0].acked()
	}
	return st.text
}

func (w *wireMixed) expected() map[string][]tuple.Flat {
	var r1, r4 []tuple.Flat
	for _, cn := range w.conns {
		r1 = append(append(r1, cn.r1...), cn.r1ring.live()...)
		r4 = append(r4, cn.r4ring.live()...)
	}
	return map[string][]tuple.Flat{"R1": r1, "R4": r4}
}

// logs merges the connections' logs: their keys are disjoint, so one
// after the other is a valid serial order.
func (w *wireMixed) logs() []relLog {
	merged := recorder{logs: make(map[string]*relLog)}
	for _, cn := range w.conns {
		for name, l := range cn.rec.logs {
			m, ok := merged.logs[name]
			if !ok {
				m = &relLog{name: name}
				merged.logs[name] = m
			}
			m.initial = append(m.initial, l.initial...)
			m.ops = append(m.ops, l.ops...)
		}
	}
	return merged.relLogs()
}

func (w *wireMixed) server() *server.Server { return w.srv }
func (w *wireMixed) midTx(c int) bool       { return w.conns[c].plan != nil }

func (w *wireMixed) reads() []tracedStmt {
	var out []tracedStmt
	for _, cn := range w.conns {
		out = append(out, cn.rec.stmts...)
	}
	return out
}

// ---------------------------------------------------------------------
// reopen_recover

// crashBatches is how many autocommit batches sit in the crash image's
// log, uncheckpointed, for recovery to redo.
const crashBatches = 500

// reopenRecover: one op is one cycle of the paths no steady-state
// workload enters. On the cleanly closed file: Open, the first point
// SELECT, the first write (which materialises the canonical form), and
// Close. On a copy of the crash image: Open (redo and orphan sweep) and
// Close. Copying the image is not timed. The first write alternates
// insert and delete so the file keeps its size over hundreds of cycles.
type reopenRecover struct {
	idle
	sh      shape
	ring    *ring
	model   rowModel
	imageAt []tuple.Flat // rows at the moment the crash image was copied
	image   string       // the crash image's data file (sidecar beside it)
	work    string       // where each cycle copies it to
	redone  int          // batches the last recovery replayed
}

func (w *reopenRecover) spec() spec {
	return spec{name: "reopen_recover", clients: 1, poolPages: 64, warmOps: 3, traceOps: 20, slices: 1, rateBySpans: true}
}

func (w *reopenRecover) gen(seed int64, students int) {
	w.sh = sized(shape{CoursePool: 150, ClubPool: 20, MaxCourses: 8, MaxClubs: 4}, 250, students)
	rng := rand.New(rand.NewSource(seed))
	w.ring = newRing(genStudents(rng, w.sh, 0, 2*w.sh.Students))
	w.model = newRowModel(2*w.sh.Students, w.ring.initial())
}

func (w *reopenRecover) load(db *engine.Database) (int, error) {
	return len(w.ring.initial()), createAndLoad(db, enrollDef("R1", 0), w.ring.initial())
}

// begin makes the crash image: crashBatches autocommit writes with no
// checkpoint among them, then a copy of the data file and the sidecar
// while the database is still open. The database is then closed
// cleanly; cycles reopen it themselves.
func (w *reopenRecover) begin(h *harness) error {
	ws0, _ := h.db.WALStats()
	for i := 0; i < crashBatches; i++ {
		if _, err := w.write(h.db, i); err != nil {
			return err
		}
	}
	ws1, _ := h.db.WALStats()
	if ws1.CheckpointFsyncs != ws0.CheckpointFsyncs {
		return fmt.Errorf("a checkpoint ran while the crash image was being written")
	}
	w.imageAt = w.ring.live()
	w.image, w.work = h.path+".crash", h.path+".work"
	if err := copyDB(h.path, w.image); err != nil {
		return err
	}
	err := h.db.Close()
	h.db = nil
	return err
}

// write applies the ring's next change: an insert when i is even, else
// a delete of the oldest live row.
func (w *reopenRecover) write(db *engine.Database, i int) (bool, error) {
	if i%2 == 0 {
		f := w.ring.insert()
		w.model.book(f, false)
		return db.Insert("R1", f)
	}
	f := w.ring.delete()
	w.model.book(f, true)
	return db.Delete("R1", f)
}

// copyDB copies a data file and its .wal sidecar.
func copyDB(from, to string) error {
	for _, suffix := range []string{"", ".wal"} {
		body, err := os.ReadFile(from + suffix)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to+suffix, body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (w *reopenRecover) op(h *harness, c, i int) (total time.Duration, err error) {
	// run times one engine call of the cycle; after a failure the rest
	// are skipped
	run := func(name string, call func() error) {
		if err != nil {
			return
		}
		h.tr.push("engine."+name, i)
		t0 := time.Now()
		err = call()
		total += time.Since(t0)
		h.tr.pop()
	}
	// probe a student from the middle of the live window
	r := w.ring
	probe := pointStmt("R1", studentIndex(r.flats[(r.head+(r.tail-r.head)/2)%len(r.flats)]))
	rows := w.model.rows(probe)

	var db, crashed *engine.Database
	var res query.Result
	h.tr.push("op", i)
	run("open_clean", func() (e error) { db, e = h.openDB(h.path); return e })
	run("first_select", func() (e error) { res, e = query.NewSessionOn(db).Exec(probe.text); return e })
	run("materialize", func() error {
		changed, e := w.write(db, i)
		if e == nil && !changed {
			e = fmt.Errorf("the first write changed nothing")
		}
		return e
	})
	run("close_clean", func() error { return db.Close() })
	if err == nil {
		err = copyDB(w.image, w.work)
	}
	run("recover", func() (e error) { crashed, e = h.openDB(w.work); return e })
	if err == nil {
		err = w.checkRecovered(crashed, i)
	}
	run("close_recovered", func() error { return crashed.Close() })
	h.tr.pop()
	if err == nil && (res.Relation == nil || res.Relation.ExpansionSize() < rows) {
		err = fmt.Errorf("%s: fewer than the student's %d rows", probe.text, rows)
	}
	return total, err
}

// checkRecovered: recovery must have replayed every batch of the image,
// and on the first cycles (which the traced run covers) the recovered
// rows must be the rows at copy time.
func (w *reopenRecover) checkRecovered(db *engine.Database, i int) error {
	ws, _ := db.WALStats()
	w.redone = ws.RecoveredBatches
	if ws.RecoveredBatches != crashBatches {
		return fmt.Errorf("recovery replayed %d batches, the image holds %d", ws.RecoveredBatches, crashBatches)
	}
	if i >= 3 {
		return nil
	}
	got, err := db.ReadRelation(context.Background(), "R1")
	if err != nil {
		return err
	}
	if want := canonicalOf(w.imageAt); !got.Equal(want) {
		return fmt.Errorf("recovered image: %d NFR tuples over %d rows, at copy time %d over %d",
			got.Len(), got.ExpansionSize(), want.Len(), want.ExpansionSize())
	}
	return nil
}

func (w *reopenRecover) end(h *harness) (err error) {
	for _, p := range []string{w.work, w.work + ".wal", w.image, w.image + ".wal"} {
		os.Remove(p)
	}
	h.db, err = h.openDB(h.path)
	return err
}

func (w *reopenRecover) describe(i int) string {
	if i%2 == 0 {
		return insertText("R1", w.ring.insert())
	}
	return deleteText("R1", w.ring.delete())
}

func (w *reopenRecover) expected() map[string][]tuple.Flat {
	return map[string][]tuple.Flat{"R1": w.ring.live()}
}
