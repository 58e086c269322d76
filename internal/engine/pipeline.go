package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// The write pipeline turns the per-shard statement latch from a
// serialization point into a batching point. Without it, N clients
// hammering one relation serialize completely: each autocommit
// statement takes the latch, runs its Section-4 maintenance, and pays
// its own commit fsync before the next client can start — throughput
// is bounded by 1/fsync regardless of N. With it, writers ENQUEUE
// their mutation on the owning shard's pipeline and the first enqueuer
// spawns the shard's maintainer stage: a detached goroutine that
// drains the queue in batches, runs
// the composition/decomposition algorithms once per batch under a
// single engine transaction (the Tx attaches its storage transaction to
// the shard, so the whole batch's write-through pools under it), and
// commits the batch with ONE fsync — then acks every waiting client
// with its own per-statement result. While a batch is being applied,
// newly arriving statements pile up in the queue and form the next
// batch, so the fsync cost amortizes across however many clients are
// concurrently writing: fsyncs/statement drops below 1 and throughput
// scales with the offered load instead of flatlining.
//
// Combined with K-way sharding (RelationDef.Shards) the same relation
// gets K independent pipelines whose batches dirty disjoint pages and
// group-commit concurrently through the store's merged WAL scheduler.
//
// Semantics are unchanged from per-statement autocommit:
//
//   - each enqueued statement observes the queue order of its shard
//     (the maintainer applies ops in enqueue order) and returns its own
//     (changed, err) exactly as Database.Insert/Delete always did;
//   - wait-die and the latch protocol are untouched — the batch runs
//     under an ordinary engine Tx that takes the shard latch, retries
//     under its ORIGINAL id on conflict, and parks on the refused
//     latch holding nothing (see Database.autocommit);
//   - each op of a batch is one statement of the batch's Tx
//     (Tx.writeShard), so an op whose tuple the store cannot hold is
//     refused alone, with nothing written, exactly as in a
//     multi-statement Tx: the op is acked with the error and the rest of
//     the batch applies and commits with the one fsync. A write that
//     fails after that check stops the Tx: Commit refuses the batch and
//     every op is acked with the error, as on any failed commit;
//   - durability boundary: a statement is acked only after its batch's
//     commit fsync returned, so an acked write is durable exactly as
//     before.
type pipeline struct {
	mu      sync.Mutex
	queue   []*pipeOp
	leading bool // a maintainer goroutine is running (or being spawned)

	// counters for PipelineStats (written only by the shard's single
	// maintainer goroutine; read concurrently).
	batches  atomic.Int64 // batches applied
	ops      atomic.Int64 // statements applied via batches
	maxBatch atomic.Int64 // largest batch applied
	peak     atomic.Int64 // high-water queue depth
}

// pipeOp is one enqueued autocommit statement; done is closed by the
// maintainer once changed/err are final (for an acked statement, after
// the batch's commit fsync).
type pipeOp struct {
	f       tuple.Flat
	insert  bool
	changed bool
	err     error
	done    chan struct{}
}

// writePipelined is the autocommit Insert/Delete entry point: enqueue
// on the owning shard's pipeline, spawn the maintainer goroutine if
// none is running, then wait for the ack. The common uncontended case
// is: enqueue, spawn, the maintainer applies a batch of one and exits —
// one transaction, one commit, one goroutine handoff.
func (db *Database) writePipelined(name string, f tuple.Flat, insert bool) (bool, error) {
	if db.isClosed() {
		return false, fmt.Errorf("engine: statement: %w", ErrClosed)
	}
	r, err := db.Rel(name)
	if err != nil {
		return false, err
	}
	if insert {
		if err := db.typeCheck(r, f); err != nil {
			return false, err
		}
	}
	sh := r.shardFor(f)
	op := &pipeOp{f: f, insert: insert, done: make(chan struct{})}
	p := &sh.pipe
	p.mu.Lock()
	p.queue = append(p.queue, op)
	if d := int64(len(p.queue)); d > p.peak.Load() {
		p.peak.Store(d)
	}
	lead := !p.leading
	if lead {
		p.leading = true
	}
	p.mu.Unlock()
	if lead {
		// The maintainer stage runs DETACHED: if the enqueuing writer
		// drained the queue itself (serve-while-leading), it could not
		// submit its own next statement while leading — under steady
		// load the leader ends up servicing everyone else's generations
		// and then replays its own backlog as batches of one, halving
		// the merge factor. A detached drainer makes every writer an
		// equal enqueuer, so batches track the offered concurrency. The
		// goroutine exits once the queue stays empty (see the linger in
		// runPipeline), so an idle relation carries no goroutine.
		go db.runPipeline(sh)
	}
	<-op.done
	return op.changed, op.err
}

// runPipeline is the maintainer stage: drain batches until the queue
// stays empty, then exit. The exit is race-free because both the
// maintainer's empty-check-and-resign and an enqueuer's
// append-and-check-leading run under p.mu: the maintainer only clears
// leading in the same critical section that observed the empty queue,
// so an op that saw leading==true is guaranteed to be picked up by
// this maintainer's next drain.
func (db *Database) runPipeline(sh *relShard) {
	p := &sh.pipe
	// linger counts empty drains survived since the last batch: after
	// acking a batch the maintainer gives the acked writers a couple of
	// scheduling waves to submit their next statements before it exits.
	// Without the linger, the drain right after an ack wave often races
	// the wakeups, loses, exits — and the first waker spawns a new
	// maintainer that commits a batch of ONE with a full fsync, halving
	// the effective merge factor under steady load. A maintainer that
	// never applied a batch (fresh spawn) does not linger, so the
	// uncontended single-writer path is unchanged.
	linger := 0
	for {
		p.mu.Lock()
		batch := p.queue
		p.queue = nil
		if len(batch) == 0 {
			if linger > 0 {
				linger--
				p.mu.Unlock()
				runtime.Gosched()
				continue
			}
			p.leading = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		linger = 2
		p.batches.Add(1)
		p.ops.Add(int64(len(batch)))
		if n := int64(len(batch)); n > p.maxBatch.Load() {
			p.maxBatch.Store(n)
		}
		db.applyBatch(sh, batch)
		for _, op := range batch {
			close(op.done)
		}
		// Let the writers just acked (and any runnable enqueuers) get
		// their next statement into the queue before the next drain.
		// Without this, a saturated CPU drains a fragment — one or two
		// freshly woken writers — and pays a full commit fsync for it;
		// one yield lets the queue refill so batches stay near the
		// offered concurrency. Uncontended runs drain an empty queue
		// right after and resign, so the lone-writer path just pays a
		// scheduler call.
		runtime.Gosched()
	}
}

// applyBatch applies one batch under one engine transaction (one
// latch acquisition, one maintenance pass, one commit fsync), filling
// each op's (changed, err). Mirrors Database.autocommit's conflict
// protocol: retry under the ORIGINAL transaction id, parking on the
// refused latch while holding nothing.
func (db *Database) applyBatch(sh *relShard, batch []*pipeOp) {
	var id uint64
	for {
		tx, err := db.begin(context.Background(), id)
		if err != nil {
			failBatch(batch, err)
			return
		}
		id = tx.id
		if err := tx.applyOps(sh, batch); err != nil {
			tx.Rollback()
			if errors.Is(err, ErrTxConflict) {
				var ce *conflictError
				if errors.As(err, &ce) {
					ce.l.awaitFree(db)
				}
				continue
			}
			failBatch(batch, err)
			return
		}
		if cerr := tx.Commit(); cerr != nil {
			// every statement of the batch failed the same way a lone
			// autocommit statement would have
			failBatch(batch, cerr)
		}
		return
	}
}

// applyOps runs a pipeline batch on sh as statements of tx, whose
// write-through pools under one storage transaction and commits as one
// WAL batch; each op keeps its own (changed, err). It fails the batch
// as a whole only on a latch conflict; a failed write-through fails it
// through Commit.
func (tx *Tx) applyOps(sh *relShard, batch []*pipeOp) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for _, op := range batch {
		if op.err = tx.usableWrite(); op.err == nil {
			op.changed, op.err = tx.writeShard(sh, op.f, op.insert)
		}
		if errors.Is(op.err, ErrTxConflict) {
			return op.err
		}
	}
	return nil
}

// failBatch acks every statement of a batch with the same error (the
// batch never applied).
func failBatch(batch []*pipeOp, err error) {
	for _, op := range batch {
		op.changed, op.err = false, err
	}
}
