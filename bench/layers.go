package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/update"
	"repro/internal/wire"
)

// Per-layer metrics come from three sources, all outside the engine:
// (a) deltas of its public counters over the traced ops, (b) the spans
// and counts of the storage.File wrapper, and (c) layer replays: what
// the traced ops did is driven again through one layer's public API at
// a time, over files whose Sync returns at once, so each layer's CPU
// cost is priced alone.

// counters is one reading of every public counter the harness follows.
type counters struct {
	wal        storage.WALStats
	pool       storage.PoolStats
	latchWaits int64
	pipeOps    int64
	pipeBatch  int64
	upd        update.Stats
	data, log  fileCounts
	stmts      int64
	refused    int64
	conflicts  int64
}

// counters reads them. A workload that opens its own databases per op
// (reopen_recover) has no open database between ops, and then only the
// device counts are read.
func (h *harness) counters() (counters, error) {
	c := counters{conflicts: h.conflicts.Load()}
	if h.fs != nil {
		c.data, c.log = h.fs.counts()
	}
	if h.db == nil {
		return c, nil
	}
	c.wal, _ = h.db.WALStats()
	c.pool, _ = h.db.AllPoolStats()
	c.latchWaits = h.db.LatchWaits()
	for _, p := range h.db.PipelineStats() {
		c.pipeOps += p.Ops
		c.pipeBatch += p.Batches
	}
	// Stats materialises the canonical form, so it is asked only of
	// relations the workload writes, which have it resident anyway
	for _, name := range h.sp.written {
		st, err := h.db.Stats(name)
		if err != nil {
			return c, err
		}
		c.upd.Add(st.Ops)
	}
	if srv := h.w.server(); srv != nil {
		st := srv.Stats()
		c.stmts, c.refused = st.Statements, st.Refused
	}
	return c, nil
}

func (c counters) minus(b counters) counters {
	c.wal.Batches -= b.wal.Batches
	c.wal.PagesLogged -= b.wal.PagesLogged
	c.wal.FullPages -= b.wal.FullPages
	c.wal.DeltaPages -= b.wal.DeltaPages
	c.wal.BytesLogged -= b.wal.BytesLogged
	c.wal.Fsyncs -= b.wal.Fsyncs
	c.wal.CheckpointFsyncs -= b.wal.CheckpointFsyncs
	c.pool.Hits -= b.pool.Hits
	c.pool.Misses -= b.pool.Misses
	c.pool.Evictions -= b.pool.Evictions
	c.pool.Overflows -= b.pool.Overflows
	c.latchWaits -= b.latchWaits
	c.pipeOps -= b.pipeOps
	c.pipeBatch -= b.pipeBatch
	c.upd.Compositions -= b.upd.Compositions
	c.upd.Decompositions -= b.upd.Decompositions
	c.upd.CandidateScans -= b.upd.CandidateScans
	c.data, c.log = c.data.minus(b.data), c.log.minus(b.log)
	c.stmts -= b.stmts
	c.refused -= b.refused
	c.conflicts -= b.conflicts
	return c
}

// stopwatch sums the time of one kind of call.
type stopwatch struct {
	total time.Duration
	n     int
}

func (s *stopwatch) add(d time.Duration) { s.total += d; s.n++ }

// per is the mean duration of a call, in units of unit.
func (s *stopwatch) per(unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// layers turns one traced run into the per-layer metrics.
type layers struct {
	h      *harness
	tr     *tracer
	plain  *phase // the fixed-count run before the traced one
	traced *phase
	delta  counters
	setup  *setupStats
	v      map[string]float64

	// lower is the time the replays attribute to layers under the
	// statement, summed over the traced ops
	lower time.Duration
}

// call times one replayed call and records it as a span of op.
func (l *layers) call(sw *stopwatch, name string, op int, f func() error) error {
	start := l.tr.now()
	t0 := time.Now()
	err := f()
	sw.add(time.Since(t0))
	l.tr.record(name, start, l.tr.now(), op)
	return err
}

// loop times n calls as one span, for calls too short to time singly.
func (l *layers) loop(name string, n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := l.tr.now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t0)
	l.tr.record(name, start, l.tr.now(), -1)
	return float64(d.Nanoseconds()) / float64(n)
}

// sinkEvent is one NFR-tuple mutation the maintainer handed its sink.
type sinkEvent struct {
	t       tuple.Tuple
	removed bool
}

type recordingSink struct{ events []sinkEvent }

func (s *recordingSink) TupleAdded(t tuple.Tuple)   { s.events = append(s.events, sinkEvent{t: t}) }
func (s *recordingSink) TupleRemoved(t tuple.Tuple) { s.events = append(s.events, sinkEvent{t, true}) }

// relReplay is one relation's traced writes, as each layer saw them.
type relReplay struct {
	log     relLog
	shards  int
	initial []*core.Relation // shard-canonical partitions at trace begin
	events  [][]sinkEvent    // per op
}

// replayUpdate drives the logged writes through update.Maintainer alone
// (one per shard, as the engine keeps them) with a recording sink.
func (l *layers) replayUpdate(log relLog, shards int, sw *stopwatch) (*relReplay, error) {
	rr := &relReplay{log: log, shards: shards}
	rr.initial = store.PartitionCanonical(canonicalOf(log.initial), enrollOrder, shards)
	maint := make([]*update.Maintainer, shards)
	sink := &recordingSink{}
	for i, part := range rr.initial {
		m, err := update.FromRelationIndexed(part, enrollOrder)
		if err != nil {
			return nil, err
		}
		m.SetSink(sink)
		maint[i] = m
	}
	for i, op := range log.ops {
		m := maint[store.ShardOfAtom(op.F[0], shards)]
		sink.events = nil
		err := l.call(sw, "replay.update.apply", i, func() (err error) {
			if op.Delete {
				_, err = m.Delete(op.F)
			} else {
				_, err = m.Insert(op.F)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		rr.events = append(rr.events, sink.events)
	}
	return rr, nil
}

// replayStore drives the recorded sink events through store.RelStore
// and Store.Commit, one transaction per op, over a file that never
// syncs.
func (l *layers) replayStore(rr *relReplay, event, commit *stopwatch) error {
	fs := &deviceFS{noSync: true}
	path := filepath.Join(l.h.dir, "replay-store.nfrs")
	st, err := store.Open(path, store.Options{PoolPages: l.h.sp.poolPages, CheckpointBytes: checkpointBytes,
		OpenFile: fs.open})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer st.Close()
	txn := st.Begin()
	rs, err := st.CreateRelation(txn, store.RelationDef{Name: rr.log.name, Schema: enrollSchema,
		Order: enrollOrder, Shards: rr.shards})
	if err != nil {
		return err
	}
	n := 0
	for _, part := range rr.initial {
		for i := 0; i < part.Len(); i++ {
			if err := rs.Insert(txn, part.Tuple(i)); err != nil {
				return err
			}
			if n++; n%bulkTx == 0 {
				if err := st.Commit(txn); err != nil {
					return err
				}
				txn = st.Begin()
			}
		}
	}
	if err := st.Commit(txn); err != nil {
		return err
	}
	// the traced run's device spans already hold the file's time, so
	// what the replay adds to the layers under the statement is its
	// calls' time less the time they spent in the file
	data0, log0 := fs.counts()
	defer func() {
		data, log := fs.counts()
		l.lower -= time.Duration(data.BusyNs - data0.BusyNs + log.BusyNs - log0.BusyNs)
	}()
	for i, events := range rr.events {
		txn := st.Begin()
		for _, ev := range events {
			err := l.call(event, "replay.store.event", i, func() error {
				if ev.removed {
					return rs.Remove(txn, ev.t)
				}
				return rs.Insert(txn, ev.t)
			})
			if err != nil {
				return err
			}
		}
		if err := l.call(commit, "replay.store.commit", i, func() error { return st.Commit(txn) }); err != nil {
			return err
		}
	}
	return nil
}

// storageTimes is what the storage replay measured.
type storageTimes struct {
	heapInsert, hashPut, hashGet, hashDelete stopwatch
	btreePut, btreeGet, btreeRange, btreeDel stopwatch
	poolMiss                                 stopwatch
	heapGetNs, poolHitNs                     float64
	heapPages                                int
	// pages each structure dirtied, summed over the replayed ops (a page
	// dirtied twice in one op counts once, as in the op's WAL batch)
	heapDirty, hashDirty, btreeDirty int
	// pages the replay's commits logged beyond those: the index meta
	// pages, whose count updates are deferred to commit
	metaDirty int
}

// replayStorage drives the recorded keys through HeapFile,
// DiskHashIndex, BTree and BufferPool.Get alone: a heap, the two hash
// indexes a shard keeps (tuple key -> record, Student -> record) and
// the B+tree on Student, loaded with the tuples the relation held, then
// the traced writes' sink events (put and delete) and the traced
// statements' keys (get and 20-student range).
func (l *layers) replayStorage(rrs []*relReplay, probes []int, windows [][2]int) (*storageTimes, error) {
	out := &storageTimes{}
	fs := &deviceFS{noSync: true}
	path := filepath.Join(l.h.dir, "replay-storage.db")
	defer os.Remove(path)
	defer os.Remove(path + ".wal")
	f, err := fs.open(path, true)
	if err != nil {
		return nil, err
	}
	pager, err := storage.NewPager(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	defer pager.Close()
	log, err := storage.OpenWAL(path+".wal", fs.open)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	bp, err := storage.NewBufferPool(pager, l.h.sp.poolPages)
	if err != nil {
		return nil, err
	}
	bp.AttachWAL(log)

	txn := bp.Begin()
	heap, err := storage.CreateHeap(bp, txn)
	if err != nil {
		return nil, err
	}
	hash, err := storage.CreateDiskIndex(bp, txn)
	if err != nil {
		return nil, err
	}
	byKey, err := storage.CreateDiskIndex(bp, txn)
	if err != nil {
		return nil, err
	}
	bt, err := storage.CreateBTree(bp, txn)
	if err != nil {
		return nil, err
	}
	commit := func() error {
		if _, err := bp.CommitTxn(txn); err != nil {
			return err
		}
		if log.Size() >= checkpointBytes {
			if err := bp.Checkpoint(); err != nil {
				return err
			}
		}
		txn = bp.Begin()
		return nil
	}
	// dirtied books the pages the call just made dirty to its structure
	dirtied := func(into *int, call func() error) error {
		before := txn.DirtyPages()
		err := call()
		*into += txn.DirtyPages() - before
		return err
	}
	rids := make(map[string]storage.RID)
	add := func(t tuple.Tuple, op int, timed bool) error {
		var rid storage.RID
		sw := [3]*stopwatch{&out.heapInsert, &out.hashPut, &out.btreePut}
		if !timed {
			sw = [3]*stopwatch{{}, {}, {}}
		}
		if err := dirtied(&out.heapDirty, func() error {
			return l.call(sw[0], "replay.heap.insert", op, func() (e error) {
				rid, e = heap.Insert(txn, encoding.EncodeTuple(t))
				return e
			})
		}); err != nil {
			return err
		}
		rids[t.Key()] = rid
		if err := dirtied(&out.hashDirty, func() error {
			return l.call(sw[1], "replay.hash.put", op, func() error { return byKey.Put(txn, []byte(t.Key()), rid) })
		}); err != nil {
			return err
		}
		for _, a := range t.Set(0).Atoms() {
			if err := dirtied(&out.hashDirty, func() error {
				return l.call(sw[1], "replay.hash.put", op, func() error {
					return hash.Put(txn, encoding.AppendAtom(nil, a), rid)
				})
			}); err != nil {
				return err
			}
			if err := dirtied(&out.btreeDirty, func() error {
				return l.call(sw[2], "replay.btree.put", op, func() error {
					return bt.Put(txn, encoding.AppendOrderedAtom(nil, a), rid)
				})
			}); err != nil {
				return err
			}
		}
		return nil
	}
	untraced := l.tr
	l.tr = nil // the load is not part of the replay's spans
	n := 0
	for _, rr := range rrs {
		for _, part := range rr.initial {
			for i := 0; i < part.Len(); i++ {
				if err := add(part.Tuple(i), -1, false); err != nil {
					return nil, err
				}
				if n++; n%bulkTx == 0 {
					if err := commit(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	l.tr = untraced
	if err := commit(); err != nil {
		return nil, err
	}
	out.heapDirty, out.hashDirty, out.btreeDirty = 0, 0, 0
	logged := log.Stats().PagesLogged

	for _, rr := range rrs {
		for i, events := range rr.events {
			for _, ev := range events {
				if !ev.removed {
					if err := add(ev.t, i, true); err != nil {
						return nil, err
					}
					continue
				}
				rid := rids[ev.t.Key()]
				delete(rids, ev.t.Key())
				if err := dirtied(&out.heapDirty, func() error { return heap.Delete(txn, rid) }); err != nil {
					return nil, err
				}
				if err := dirtied(&out.hashDirty, func() error {
					return l.call(&out.hashDelete, "replay.hash.delete", i, func() error {
						_, e := byKey.Delete(txn, []byte(ev.t.Key()), rid)
						return e
					})
				}); err != nil {
					return nil, err
				}
				for _, a := range ev.t.Set(0).Atoms() {
					if err := dirtied(&out.hashDirty, func() error {
						return l.call(&out.hashDelete, "replay.hash.delete", i, func() error {
							_, e := hash.Delete(txn, encoding.AppendAtom(nil, a), rid)
							return e
						})
					}); err != nil {
						return nil, err
					}
					if err := dirtied(&out.btreeDirty, func() error {
						return l.call(&out.btreeDel, "replay.btree.delete", i, func() error {
							_, e := bt.Delete(txn, encoding.AppendOrderedAtom(nil, a), rid)
							return e
						})
					}); err != nil {
						return nil, err
					}
				}
			}
			if err := commit(); err != nil {
				return nil, err
			}
		}
	}

	out.metaDirty = log.Stats().PagesLogged - logged - out.heapDirty - out.hashDirty - out.btreeDirty

	var got []storage.RID
	for i, s := range probes {
		a := tuple.FlatOfStrings(studentName(s))[0]
		if err := l.call(&out.hashGet, "replay.hash.get", i, func() (e error) {
			r, e := hash.Get(encoding.AppendAtom(nil, a))
			got = append(got, r...)
			return e
		}); err != nil {
			return nil, err
		}
		if err := l.call(&out.btreeGet, "replay.btree.get", i, func() error {
			_, e := bt.Get(encoding.AppendOrderedAtom(nil, a))
			return e
		}); err != nil {
			return nil, err
		}
	}
	for i, w := range windows {
		lo := encoding.AppendOrderedAtom(nil, tuple.FlatOfStrings(studentName(w[0]))[0])
		hi := encoding.AppendOrderedAtom(nil, tuple.FlatOfStrings(studentName(w[1]))[0])
		if err := l.call(&out.btreeRange, "replay.btree.range20", i, func() error {
			_, e := bt.Scan(lo, true, hi, false, func([]byte, storage.RID) bool { return true })
			return e
		}); err != nil {
			return nil, err
		}
	}
	if len(got) > 0 {
		out.heapGetNs = l.loop("replay.heap.get", len(got), func(i int) { heap.Get(got[i]) })
	}

	pids, err := heap.Pages()
	if err != nil {
		return nil, err
	}
	out.heapPages = len(pids)
	// a hit is a Get of the page just got; a miss is a Get through a
	// pool too small to hold the chain it cycles over
	out.poolHitNs = l.loop("replay.pool.get_hit", 20000, func(int) {
		if fr, err := bp.Get(pids[0]); err == nil {
			bp.Unpin(fr, false)
		}
	})
	if len(pids) > 16 {
		small, err := storage.NewBufferPool(pager, 8)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2000; i++ {
			pid := pids[i%len(pids)]
			if err := l.call(&out.poolMiss, "replay.pool.get_miss", -1, func() error {
				fr, e := small.Get(pid)
				if e != nil {
					return e
				}
				return small.Unpin(fr, false)
			}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// queryTimes is what re-running the traced reads embedded measured.
type queryTimes struct {
	parse, plan     stopwatch
	exec            [numClasses][]float64 // ns, per class
	fetched, result int                   // flat rows the access paths fetched, and returned
	tuples          int                   // NFR tuples fetched
}

// replayQuery runs the traced read statements on an embedded session:
// Parse alone, EXPLAIN of the parsed statement (the planner alone), the
// whole statement, and the access path's own fetch through the engine's
// index methods, to count rows fetched per row returned.
func (l *layers) replayQuery(reads []tracedStmt) (*queryTimes, error) {
	out := &queryTimes{}
	sess := query.NewSessionOn(l.h.db)
	for i, st := range reads {
		if st.class > classScan {
			continue
		}
		var parsed query.Stmt
		if err := l.call(&out.parse, "replay.query.parse", i, func() (e error) {
			parsed, e = query.Parse(st.text)
			return e
		}); err != nil {
			return nil, err
		}
		if err := l.call(&out.plan, "replay.query.plan", i, func() error {
			_, e := sess.ExecStmt(query.ExplainStmt{Inner: parsed})
			return e
		}); err != nil {
			return nil, err
		}
		var sw stopwatch
		if err := l.call(&sw, "replay.query.exec."+classNames[st.class], i, func() error {
			_, e := sess.Exec(st.text)
			return e
		}); err != nil {
			return nil, err
		}
		out.exec[st.class] = append(out.exec[st.class], float64(sw.total))

		var fetched *core.Relation
		var err error
		switch st.class {
		case classPoint:
			fetched, err = l.h.db.LookupFixed(l.h.sp.readRel, tuple.FlatOfStrings(studentName(st.student))[0])
		case classRange:
			lo := tuple.FlatOfStrings(studentName(st.lo))[0]
			hi := tuple.FlatOfStrings(studentName(st.hi))[0]
			fetched, _, err = l.h.db.ScanFixedRange(l.h.sp.readRel, &engine.Bound{Atom: lo, Incl: true}, &engine.Bound{Atom: hi})
		case classScan:
			fetched, err = l.h.db.ReadRelation(context.Background(), l.h.sp.readRel)
		}
		if err != nil {
			return nil, err
		}
		out.fetched += fetched.ExpansionSize()
		out.tuples += fetched.Len()
		out.result += st.rel.ExpansionSize()
	}
	return out, nil
}

// replayWire encodes and decodes each traced statement's request and
// response frames, with the payloads prepared beforehand.
func (l *layers) replayWire(stmts []tracedStmt) (frameNs, bytesPerOp float64, err error) {
	type pair struct {
		req, resp []byte
		typ       byte
	}
	pairs := make([]pair, len(stmts))
	total := 0
	for i, st := range stmts {
		p := pair{req: []byte(st.text), resp: []byte(st.msg), typ: wire.TMsg}
		if st.rel != nil {
			var buf bytes.Buffer
			if err := encoding.WriteRelation(&buf, st.rel); err != nil {
				return 0, 0, err
			}
			p.resp, p.typ = buf.Bytes(), wire.TRows
		}
		pairs[i] = p
	}
	var frame []byte
	frameNs = l.loop("replay.wire.frame", len(pairs), func(i int) {
		p := pairs[i]
		frame = wire.Append(frame[:0], wire.TQuery, p.req)
		_, _, n, e := wire.Decode(frame)
		total += n
		if e != nil {
			err = e
		}
		frame = wire.Append(frame[:0], p.typ, p.resp)
		_, _, n, e = wire.Decode(frame)
		total += n
		if e != nil {
			err = e
		}
	})
	return frameNs, float64(total) / float64(len(pairs)), err
}

// compute fills in every per-layer metric the workload's layers yield.
func (l *layers) compute(res *result, timed *phase) error {
	h, d, v := l.h, l.delta, l.v
	ops := float64(l.traced.ops())
	per := func(x int) float64 { return float64(x) / ops }
	sorted := func(ns []float64) []float64 { sort.Float64s(ns); return ns }

	opWall := 0.0
	for _, s := range l.tr.durations("op") {
		opWall += s
	}

	// (c) the replays
	logs, reads := h.w.logs(), h.w.reads()
	var rrs []*relReplay
	var apply, event, commit stopwatch
	events := 0
	for _, log := range logs {
		rr, err := l.replayUpdate(log, h.sp.shards[log.name], &apply)
		if err != nil {
			return fmt.Errorf("update replay of %s: %w", log.name, err)
		}
		if err := l.replayStore(rr, &event, &commit); err != nil {
			return fmt.Errorf("store replay of %s: %w", log.name, err)
		}
		for _, ev := range rr.events {
			events += len(ev)
		}
		rrs = append(rrs, rr)
	}
	l.lower += apply.total + event.total + commit.total
	if apply.n > 0 {
		v["update.apply_us"] = apply.per(time.Microsecond)
		v["update.sink_events_per_op"] = float64(events) / float64(apply.n)
		v["update.candidate_scans_per_op"] = float64(d.upd.CandidateScans) / float64(apply.n)
		v["update.compositions_per_op"] = float64(d.upd.Compositions) / float64(apply.n)
		v["update.decompositions_per_op"] = float64(d.upd.Decompositions) / float64(apply.n)
		v["store.sink_event_us"] = event.per(time.Microsecond)
		v["store.commit_us"] = commit.per(time.Microsecond)
	}

	var qt *queryTimes
	if len(reads) > 0 {
		var err error
		if qt, err = l.replayQuery(reads); err != nil {
			return fmt.Errorf("query replay: %w", err)
		}
		v["query.parse_ns"] = qt.parse.per(time.Nanosecond)
		v["query.plan_ns"] = qt.plan.per(time.Nanosecond)
		v["query.exec_point_us"] = median(qt.exec[classPoint]) / 1e3
		v["query.exec_range_us"] = median(qt.exec[classRange]) / 1e3
		v["query.exec_scan_ms"] = median(qt.exec[classScan]) / 1e6
		if qt.result > 0 {
			v["query.rows_fetched_per_row_returned"] = float64(qt.fetched) / float64(qt.result)
		}
		l.lower += qt.parse.total + qt.plan.total
	}

	// the keys of the storage replay: the students the traced
	// statements named
	var probes []int
	var windows [][2]int
	for _, st := range reads {
		switch st.class {
		case classPoint:
			probes = append(probes, st.student)
		case classRange:
			windows = append(windows, [2]int{st.lo, st.hi})
		}
	}
	for _, log := range logs {
		for _, op := range log.ops {
			s := studentIndex(op.F)
			probes = append(probes, s)
			if len(windows) < 200 {
				windows = append(windows, [2]int{s, s + rangeWindow})
			}
		}
	}
	if len(rrs) == 0 && len(reads) > 0 {
		// a read-only workload: the structures hold what it loaded
		rrs = []*relReplay{{shards: 1, initial: []*core.Relation{canonicalOf(h.w.expected()[h.sp.readRel])}}}
	}
	if len(rrs) > 0 {
		// encoding: the codec alone, over the tuples the relations held
		var tuples []tuple.Tuple
		for _, rr := range rrs {
			for _, part := range rr.initial {
				tuples = append(tuples, part.Tuples()...)
			}
		}
		enc := make([][]byte, len(tuples))
		v["encoding.tuple_encode_ns"] = l.loop("replay.encoding.encode", len(tuples), func(i int) {
			enc[i] = encoding.EncodeTuple(tuples[i])
		})
		v["encoding.tuple_decode_ns"] = l.loop("replay.encoding.decode", len(tuples), func(i int) {
			encoding.DecodeTuple(enc[i])
		})

		stt, err := l.replayStorage(rrs, probes, windows)
		if err != nil {
			return fmt.Errorf("storage replay: %w", err)
		}
		v["storage.heap_insert_us"] = stt.heapInsert.per(time.Microsecond)
		v["storage.heap_get_ns"] = stt.heapGetNs
		v["storage.heap_pages"] = float64(stt.heapPages)
		v["storage.hash_put_us"] = stt.hashPut.per(time.Microsecond)
		v["storage.hash_get_us"] = stt.hashGet.per(time.Microsecond)
		v["storage.hash_delete_us"] = stt.hashDelete.per(time.Microsecond)
		v["storage.btree_put_us"] = stt.btreePut.per(time.Microsecond)
		v["storage.btree_get_us"] = stt.btreeGet.per(time.Microsecond)
		v["storage.btree_range20_us"] = stt.btreeRange.per(time.Microsecond)
		v["storage.btree_delete_us"] = stt.btreeDel.per(time.Microsecond)
		v["storage.pool_get_hit_ns"] = stt.poolHitNs
		v["storage.pool_get_miss_us"] = stt.poolMiss.per(time.Microsecond)
		if apply.n > 0 {
			v["storage.heap_dirty_pages_per_op"] = float64(stt.heapDirty) / float64(apply.n)
			v["storage.hash_dirty_pages_per_op"] = float64(stt.hashDirty) / float64(apply.n)
			v["storage.btree_dirty_pages_per_op"] = float64(stt.btreeDirty) / float64(apply.n)
			v["storage.meta_dirty_pages_per_op"] = float64(stt.metaDirty) / float64(apply.n)
		}
		if qt != nil {
			// what the traced reads spent under the planner: the index
			// descent, then one heap record and one decode per tuple
			l.lower += time.Duration(float64(len(qt.exec[classPoint]))*stt.hashGet.per(1) +
				float64(len(qt.exec[classRange]))*stt.btreeRange.per(1) +
				float64(qt.tuples)*(stt.heapGetNs+v["encoding.tuple_decode_ns"]))
		}
	}

	// (a) counter deltas
	if h.db != nil {
		v["engine.latch_waits_per_op"] = float64(d.latchWaits) / ops
		if d.pipeBatch > 0 {
			v["engine.pipeline_ops_per_batch"] = float64(d.pipeOps) / float64(d.pipeBatch)
		}
		for _, p := range h.db.PipelineStats() {
			if q := float64(p.QueuePeak); q > v["engine.pipeline_queue_peak"] {
				v["engine.pipeline_queue_peak"] = q
			}
		}
		if lookups := d.pool.Hits + d.pool.Misses; lookups > 0 {
			v["storage.pool_hit_ratio"] = float64(d.pool.Hits) / float64(lookups)
		}
		v["storage.pool_misses_per_op"] = per(d.pool.Misses)
		v["storage.pool_evictions_per_op"] = per(d.pool.Evictions)
		v["storage.pool_overflows"] = float64(d.pool.Overflows)
		v["storage.wal_bytes_per_op"] = per(d.wal.BytesLogged)
		v["storage.wal_pages_per_op"] = per(d.wal.PagesLogged)
		if d.wal.PagesLogged > 0 {
			v["storage.wal_full_page_share"] = float64(d.wal.FullPages) / float64(d.wal.PagesLogged)
		}
		v["storage.wal_fsyncs_per_op"] = per(d.wal.Fsyncs)
		ws, _ := h.db.WALStats()
		v["storage.wal_max_group"] = float64(ws.MaxGroupBatches)
		v["storage.checkpoint_fsyncs"] = float64(d.wal.CheckpointFsyncs)
		ix, err := h.db.IndexPageStats()
		if err != nil {
			return err
		}
		for _, c := range ix {
			v["storage.hash_pages"] += float64(c.HashDir + c.HashBuckets)
			v["storage.btree_pages"] += float64(c.BTreeInner + c.BTreeLeaf)
		}
	}
	v["engine.tx_conflicts"] = float64(d.conflicts)
	v["engine.open_clean_us"] = median(l.setup.openUs)
	v["engine.bulk_load_rows_per_s"] = median(l.setup.loadRate)
	v["store.open_page_reads"] = float64(l.setup.openReads)
	v["server.statements"] = float64(d.stmts)
	v["server.refused"] = float64(d.refused)

	// (b) the storage.File boundary
	v["storage.checkpoints"] = float64(d.log.Truncates)
	v["device.wal_write_bytes_per_op"] = float64(d.log.WriteBytes) / ops
	v["device.data_write_bytes_per_op"] = float64(d.data.WriteBytes) / ops
	v["device.read_bytes_per_op"] = float64(d.data.ReadBytes+d.log.ReadBytes) / ops
	v["device.syncs_per_op"] = float64(d.data.Syncs+d.log.Syncs) / ops
	syncs := sorted(l.tr.durationsSuffix(".sync"))
	v["device.sync_p50_us"] = percentile(syncs, 0.50) / 1e3
	v["device.sync_p95_us"] = percentile(syncs, 0.95) / 1e3
	v["device.fsync_probe_us"] = res.FsyncUs
	userBytes := 0
	for _, log := range logs {
		for _, op := range log.ops {
			userBytes += len(encoding.EncodeTuple(tuple.FromFlat(op.F)))
		}
	}
	if userBytes > 0 {
		v["device.write_amp"] = float64(d.log.WriteBytes+d.data.WriteBytes) / float64(userBytes)
	}

	// the steps of a reopen_recover cycle are spans of their own
	if steps := l.tr.durations("engine.open_clean"); len(steps) > 0 {
		v["engine.open_clean_us"] = median(steps) / 1e3
		v["engine.materialize_ms"] = median(l.tr.durations("engine.materialize")) / 1e6
		v["store.recover_ms"] = median(l.tr.durations("engine.recover")) / 1e6
		v["store.recovered_batches"] = float64(h.w.(*reopenRecover).redone)
	}

	// wire and server: what the round trip adds to the embedded statement
	if srv := h.w.server(); srv != nil {
		var err error
		if v["wire.frame_ns"], v["wire.bytes_per_op"], err = l.replayWire(reads); err != nil {
			return fmt.Errorf("wire replay: %w", err)
		}
		var rtt []float64
		for _, st := range reads {
			if st.class == classPoint {
				rtt = append(rtt, float64(st.rtt))
			}
		}
		v["server.rtt_minus_exec_us"] = (median(rtt) - median(qt.exec[classPoint])) / 1e3
	}

	// the whole: what the harness can put a layer's name to is the self
	// time of the device spans and of the engine calls a cycle is made
	// of, plus what the replays priced
	leaves := 0.0
	self := l.tr.selfTimes()
	for i, s := range l.tr.spans {
		if strings.HasPrefix(s.Name, "device.") || (strings.HasPrefix(s.Name, "engine.") && s.Name != "engine.stmt") {
			leaves += self[i]
		}
	}
	v["bench.accounted_share"] = (leaves + float64(l.lower)) / opWall
	v["engine.stmt_self_us"] = (opWall - leaves - float64(l.lower)) / ops / 1e3
	lat := sorted(append([]float64(nil), timed.lat...))
	v["bench.op_p99_ms"] = percentile(lat, 0.99)
	// by op spans, not by the wall clock: the traced run also checks
	// every SELECT against the full oracle between ops
	v["bench.trace_overhead_share"] = 1 - l.traced.rate(true)/l.plain.rate(true)
	return nil
}
