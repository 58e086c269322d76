package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/update"
)

// Flush policy, the same on every workload and every commit measured:
// real files, real fsync, and a checkpoint each time the log passes
// 1 MiB, so a timed window crosses several checkpoints.
const checkpointBytes = 1 << 20

// bulkTx is the statements per transaction of the set-up bulk load.
const bulkTx = 64

// config is one invocation: which workload, which inputs, how long.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // directory the run's databases are created under
	traceOut string // where the span file goes ("" = not written)

	// tests run at toy scale
	students int     // 0 = the workload's own population
	opsScale float64 // 0 = the workload's own warm-up and fixed-count ops
	setups   int     // 0 = three set-ups (one when traced)
}

// spec is what the harness needs to know about a workload up front.
type spec struct {
	name      string
	clients   int
	poolPages int
	// Every run starts with warmOps ops per client that are never
	// measured (they fill the pool and pay lazy materialisation), then
	// traceOps ops per client that a traced run records; both are fixed
	// counts, so with one client a seed fixes exactly which ops they are.
	warmOps  int
	traceOps int
	// rateBySpans: ops_per_s divides by the sum of the op spans instead
	// of the wall clock (reopen_recover copies its crash image, untimed,
	// inside every cycle).
	rateBySpans bool
	slices      int            // slices of the timed window (see runOne)
	written     []string       // relations the ops write
	shards      map[string]int // their shard counts
	readRel     string         // the relation the SELECTs read
}

// relLog is the write traffic one relation saw during the traced run:
// its rows when the run began and the flat-tuple mutations applied
// since, in order. The layer replays start from it.
type relLog struct {
	name    string
	initial []tuple.Flat
	ops     []update.Op
}

// workload is one of the four traffic mixes. The harness drives it
// through a fixed run shape: gen, load, begin, ops (warm-up, a
// fixed-count run that is traced on request, then the timed window),
// end, check.
type workload interface {
	spec() spec
	// gen derives every input from the seed: the rows to load and the
	// op stream. students overrides the population size (0 = default).
	gen(seed int64, students int)
	// load creates the relations in an empty database and bulk-loads
	// them, returning the rows loaded.
	load(db *engine.Database) (int, error)
	// begin readies the clients on h.db, which set-up left open.
	begin(h *harness) error
	// traceBegin is called between warm-up and the fixed-count run of a
	// traced run: from here on the workload records what it does.
	traceBegin(h *harness) error
	// op runs op i of client c and returns its latency. An error means
	// the op failed or returned a wrong result.
	op(h *harness, c, i int) (time.Duration, error)
	// describe renders the next op of client 0 without running it; only
	// a throwaway instance is asked, for the stream hash.
	describe(i int) string
	// end stops the clients and leaves h.db open.
	end(h *harness) error
	// expected is what each relation must hold once the ops are done.
	expected() map[string][]tuple.Flat
	// logs hands the traced run's write traffic to the layer replays.
	logs() []relLog
	// reads hands the traced run's statements to the layer replays.
	reads() []tracedStmt
	// server is the in-process server the clients talk to, if any.
	server() *server.Server
	// midTx reports that client c has a transaction open. It holds a
	// latch others may be waiting for, so the client is not stopped at a
	// phase boundary until it has committed.
	midTx(c int) bool
}

// idle is the part of a workload that has nothing to do: no clients to
// start or stop, nothing to hand the replays, no server, no
// transactions. Workloads embed it and override what they need.
type idle struct{}

func (idle) begin(*harness) error      { return nil }
func (idle) traceBegin(*harness) error { return nil }
func (idle) end(*harness) error        { return nil }
func (idle) logs() []relLog            { return nil }
func (idle) reads() []tracedStmt       { return nil }
func (idle) server() *server.Server    { return nil }
func (idle) midTx(int) bool            { return false }

func newWorkload(name string) (workload, error) {
	switch name {
	case "embed_write":
		return &embedWrite{}, nil
	case "embed_read":
		return &embedRead{}, nil
	case "wire_mixed":
		return &wireMixed{}, nil
	case "reopen_recover":
		return &reopenRecover{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"embed_write", "embed_read", "wire_mixed", "reopen_recover"}

// harness is the state of one run.
type harness struct {
	cfg  config
	w    workload
	sp   spec
	dir  string // this run's scratch directory
	path string // the database file
	db   *engine.Database

	fs *deviceFS // non-nil in a traced run: every open goes through it
	tr *tracer   // non-nil only while the traced run records

	mu        sync.Mutex
	wrong     []string     // the first failed ops and mismatches, for the report
	conflicts atomic.Int64 // wait-die retries: not failures
}

// openDB opens path with the run's pool and flush policy, through the
// device wrapper when the run is traced.
func (h *harness) openDB(path string) (*engine.Database, error) {
	opts := []engine.Option{engine.WithPoolPages(h.sp.poolPages), engine.WithCheckpointBytes(checkpointBytes)}
	if h.fs != nil {
		opts = append(opts, engine.WithFileSystem(h.fs.open, os.Remove))
	}
	return engine.Open(path, opts...)
}

func (h *harness) mismatch(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	h.mu.Lock()
	if len(h.wrong) < 20 {
		h.wrong = append(h.wrong, err.Error())
	}
	h.mu.Unlock()
	return err
}

// bulkLoad inserts flats with Tx.InsertMany, bulkTx statements per
// transaction.
func bulkLoad(db *engine.Database, rel string, flats []tuple.Flat) error {
	for i := 0; i < len(flats); i += bulkTx {
		j := i + bulkTx
		if j > len(flats) {
			j = len(flats)
		}
		tx, err := db.Begin(context.Background())
		if err != nil {
			return err
		}
		if _, err := tx.InsertMany(rel, flats[i:j]); err != nil {
			tx.Rollback()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// setupStats is what the repeated set-ups measured.
type setupStats struct {
	seconds   []float64 // one full set-up each
	loadRate  []float64 // rows/s of the bulk load alone
	openUs    []float64 // the clean reopen
	openReads int       // pool misses the clean reopen spent
}

// setUp runs one full set-up: generate the inputs, create the database,
// bulk-load it, Close, reopen. It leaves h.db open on h.path.
func (h *harness) setUp(st *setupStats) error {
	start := time.Now()
	h.w.gen(h.cfg.seed, h.cfg.students)
	os.Remove(h.path)
	db, err := h.openDB(h.path)
	if err != nil {
		return err
	}
	loadStart := time.Now()
	rows, err := h.w.load(db)
	if err != nil {
		db.Close()
		return err
	}
	st.loadRate = append(st.loadRate, float64(rows)/time.Since(loadStart).Seconds())
	if err := db.Close(); err != nil {
		return err
	}
	openStart := time.Now()
	if h.db, err = h.openDB(h.path); err != nil {
		return err
	}
	st.openUs = append(st.openUs, float64(time.Since(openStart).Nanoseconds())/1e3)
	st.seconds = append(st.seconds, time.Since(start).Seconds())
	if io, ok := h.db.OpenIOStats(); ok {
		st.openReads = io.Misses
	}
	return nil
}

// phase is the outcome of one run of ops: every client's latencies.
type phase struct {
	lat     []float64 // ms, all clients
	spanSum float64   // seconds, sum of the op latencies
	wall    float64   // seconds
	failed  int
	next    []int // each client's next op index
}

func (p *phase) ops() int { return len(p.lat) }

// add appends a later phase of the same run.
func (p *phase) add(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.spanSum += q.spanSum
	p.wall += q.wall
	p.failed += q.failed
	p.next = q.next
}

func (p *phase) rate(bySpans bool) float64 {
	if bySpans {
		return float64(p.ops()) / p.spanSum
	}
	return float64(p.ops()) / p.wall
}

// runOps drives every client closed-loop from op index from[c]: count
// ops each when count > 0, else until the deadline.
func (h *harness) runOps(from []int, count int, dur time.Duration) *phase {
	n := h.sp.clients
	lats := make([][]float64, n)
	fails := make([]int, n)
	next := make([]int, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			more := func(i int) bool {
				if count > 0 {
					return i < from[c]+count
				}
				return time.Now().Before(deadline)
			}
			i := from[c]
			for ; more(i) || h.w.midTx(c); i++ {
				d, err := h.w.op(h, c, i)
				if err != nil {
					fails[c]++
					h.mismatch("%s client %d op %d: %v", h.sp.name, c, i, err)
				}
				lats[c] = append(lats[c], float64(d.Nanoseconds())/1e6)
			}
			next[c] = i
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start).Seconds(), next: next}
	for c := range lats {
		p.lat = append(p.lat, lats[c]...)
		p.failed += fails[c]
	}
	for _, l := range p.lat {
		p.spanSum += l / 1e3
	}
	return p
}

// verify holds the database against the from-scratch canonical form of
// what each relation must contain: live, and again after Close and
// reopen, where the durable indexes are checked against the heap too.
// It leaves the database closed.
func (h *harness) verify() error {
	want := make(map[string]*core.Relation)
	for name, flats := range h.w.expected() {
		want[name] = canonicalOf(flats)
	}
	compare := func(when string) error {
		for name, w := range want {
			got, err := h.db.ReadRelation(context.Background(), name)
			if err != nil {
				return err
			}
			if !got.Equal(w) {
				return h.mismatch("%s %s: %d NFR tuples over %d rows, oracle has %d over %d",
					name, when, got.Len(), got.ExpansionSize(), w.Len(), w.ExpansionSize())
			}
		}
		return nil
	}
	if err := compare("live"); err != nil {
		h.db.Close()
		return err
	}
	if err := h.db.Close(); err != nil {
		return err
	}
	var err error
	if h.db, err = h.openDB(h.path); err != nil {
		return err
	}
	defer h.db.Close()
	if err := compare("after reopen"); err != nil {
		return err
	}
	if err := h.db.VerifyIndexes(); err != nil {
		return h.mismatch("indexes after reopen: %v", err)
	}
	return nil
}

// runOne executes one workload once, end to end.
func runOne(spec *benchSpec, cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	h := &harness{cfg: cfg, w: w, sp: w.spec()}
	if cfg.opsScale > 0 {
		h.sp.warmOps = int(float64(h.sp.warmOps) * cfg.opsScale)
		h.sp.traceOps = 1 + int(float64(h.sp.traceOps)*cfg.opsScale)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	if h.dir, err = os.MkdirTemp(cfg.scratch, cfg.workload+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.dir)
	h.path = filepath.Join(h.dir, "db.nfrs")

	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace}
	if res.FsyncUs, err = fsyncProbe(h.dir); err != nil {
		return nil, err
	}

	// Set-up, timed. An end-to-end run sets up three times and reports
	// the median, so setup_s is as steady as the other metrics; a traced
	// run needs the numbers only for the engine's per-layer metrics.
	setups := cfg.setups
	if setups == 0 {
		setups = 3
		if cfg.trace {
			setups = 1
		}
	}
	var st setupStats
	for k := 0; k < setups; k++ {
		if h.db != nil {
			if err := h.db.Close(); err != nil {
				return nil, err
			}
		}
		if err := h.setUp(&st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	if cfg.trace {
		// a traced run goes through the device wrapper from here on
		if err := h.db.Close(); err != nil {
			return nil, err
		}
		h.fs = &deviceFS{}
		if h.db, err = h.openDB(h.path); err != nil {
			return nil, err
		}
	}
	if err := w.begin(h); err != nil {
		return nil, fmt.Errorf("begin: %w", err)
	}

	// Warm-up, then the fixed-count run twice over: once plain, once
	// traced if the run is traced. The two are neighbours in time and
	// equal in length, so the ratio of their rates is what tracing costs.
	warm := h.runOps(make([]int, h.sp.clients), h.sp.warmOps, 0)
	plain := h.runOps(warm.next, h.sp.traceOps, 0)
	var lay *layers
	var before counters
	if cfg.trace {
		if err := w.traceBegin(h); err != nil {
			return nil, fmt.Errorf("trace begin: %w", err)
		}
		if before, err = h.counters(); err != nil {
			return nil, err
		}
		h.tr = newTracer()
		h.fs.tr.Store(h.tr)
	}
	fixed := h.runOps(plain.next, h.sp.traceOps, 0)
	if cfg.trace {
		h.fs.tr.Store(nil)
		lay = &layers{h: h, tr: h.tr, plain: plain, traced: fixed, setup: &st, v: make(map[string]float64)}
		h.tr = nil
		after, err := h.counters()
		if err != nil {
			return nil, err
		}
		lay.delta = after.minus(before)
	}
	warm.add(plain)
	warm.add(fixed)

	// Space is read here, after a number of ops the seed fixes, and not
	// after the timed window, whose op count the machine's speed decides:
	// churn grows the file, so a faster run would look fatter. Commits
	// write through, so the data file on disk is current; the sidecar is
	// gone after any clean Close and is not counted.
	fi, err := os.Stat(h.path)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, flats := range w.expected() {
		rows += len(flats)
	}
	bytesPerRow := float64(fi.Size()) / float64(rows)

	// The timed window, in slices: every end-to-end timing is the median
	// of its per-slice values, so a few disturbed seconds (a neighbour, a
	// slow fsync burst) do not move the run's number.
	slices := make([]*phase, h.sp.slices)
	timed := &phase{next: warm.next}
	for k := range slices {
		slices[k] = h.runOps(timed.next, 0, time.Duration(cfg.seconds/float64(len(slices))*float64(time.Second)))
		timed.add(slices[k])
	}
	if err := w.end(h); err != nil {
		return nil, fmt.Errorf("end: %w", err)
	}
	values := make(map[string]float64)
	if cfg.trace {
		if err := lay.compute(res, timed); err != nil {
			return nil, err
		}
		values = lay.v
		if cfg.traceOut != "" {
			if err := lay.tr.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	verr := h.verify()
	if verr != nil && len(h.wrong) == 0 {
		return nil, fmt.Errorf("verify: %w", verr)
	}

	res.Attempted = warm.ops() + timed.ops()
	res.Failed = warm.failed + timed.failed
	if verr != nil {
		res.Failed++ // a wrong end state fails the run even if every op answered
	}
	res.Correct = res.Failed == 0
	res.Samples = timed.ops()
	res.Mismatches = h.wrong
	res.StreamHash = hashStream(cfg)

	if !cfg.trace {
		var rate, p50, p95 []float64
		for _, sl := range slices {
			sort.Float64s(sl.lat)
			rate = append(rate, sl.rate(h.sp.rateBySpans))
			p50 = append(p50, percentile(sl.lat, 0.50))
			p95 = append(p95, percentile(sl.lat, 0.95))
		}
		values["setup_s"] = median(st.seconds)
		values["ops_per_s"] = median(rate)
		values["op_p50_ms"] = median(p50)
		values["op_p95_ms"] = median(p95)
		values["ok_share"] = 1 - float64(res.Failed)/float64(res.Attempted)
		values["db_bytes_per_row"] = bytesPerRow
	}
	return res, res.fill(spec, values)
}

// hashStream fingerprints the first ops a config generates.
func hashStream(cfg config) string {
	w, _ := newWorkload(cfg.workload)
	w.gen(cfg.seed, cfg.students)
	return streamHash(2000, w.describe)
}

// fsyncProbe times 100 × (4 KiB write + Sync) in dir and returns the
// median in µs: the device the run's latencies were measured on.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}
