package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// reindexShards re-attaches every shard of rs to its reverted pages, as
// the engine does for the shards a rolled-back Tx touched.
func reindexShards(t *testing.T, rs *RelStore) {
	t.Helper()
	for _, sh := range rs.shards {
		if _, err := sh.Reindex(); err != nil {
			t.Fatalf("Reindex(%s) after rollback: %v", rs.def.Name, err)
		}
	}
}

// TestDurableIndexOracle drives a randomized workload — inserts,
// deletes, creates, drops, commits, rollbacks, reopens — and after
// EVERY step asserts the durable index answers identically to the
// rebuilt-from-heap oracle (VerifyIndexes probes every tuple's key and
// every fixed atom, checks entry counts, and walks every index page).
// The durable structure must never be more than a view of the heap:
// mid-transaction it mirrors the buffered heap, after rollback the
// committed one, after reopen the recovered one.
func TestDurableIndexOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.nfrs")
	rng := rand.New(rand.NewSource(1))
	open := func() *Store {
		st, err := Open(path, Options{PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	defer func() { st.Discard() }()

	names := []string{"A", "B", "C"}
	defOf := func(name string) RelationDef {
		d := testDef(t)
		d.Name = name
		return d
	}
	// live mirrors the buffered tuple set per relation (keyed by tuple
	// key); committed is the durable state a rollback reverts to.
	type mirror map[string]tuple.Tuple
	live := map[string]mirror{}
	committed := map[string]mirror{}
	copyState := func(src map[string]mirror) map[string]mirror {
		out := make(map[string]mirror, len(src))
		for n, m := range src {
			cm := make(mirror, len(m))
			for k, tp := range m {
				cm[k] = tp
			}
			out[n] = cm
		}
		return out
	}

	var txn *Txn
	touched := map[string]bool{}
	ensureTxn := func() *Txn {
		if txn == nil {
			txn = st.Begin()
		}
		return txn
	}
	commit := func() {
		if txn == nil {
			return
		}
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
		txn = nil
		touched = map[string]bool{}
		committed = copyState(live)
	}
	rollback := func() {
		if txn == nil {
			return
		}
		if err := st.Rollback(txn); err != nil {
			t.Fatal(err)
		}
		for name := range touched {
			rs, ok := st.Rel(name)
			if !ok {
				continue
			}
			reindexShards(t, rs)
		}
		txn = nil
		touched = map[string]bool{}
		live = copyState(committed)
	}

	randTuple := func(r *rand.Rand) tuple.Tuple {
		pick := func(prefix string, pool int, n int) []string {
			out := make([]string, 0, n)
			seen := map[int]bool{}
			for len(out) < n {
				i := r.Intn(pool)
				if seen[i] {
					continue
				}
				seen[i] = true
				out = append(out, fmt.Sprintf("%s%d", prefix, i))
			}
			return out
		}
		return tupleOf([][]string{
			pick("c", 9, 1+r.Intn(2)),
			pick("b", 6, 1),
			pick("s", 8, 1+r.Intn(2)),
		}, defOf("A").Order)
	}

	verify := func(step int, op string) {
		t.Helper()
		if err := st.VerifyIndexes(); err != nil {
			t.Fatalf("step %d (%s): durable index diverged from heap oracle: %v", step, op, err)
		}
		// spot-check the mirror and a negative probe per relation
		for _, name := range st.Relations() {
			rs, _ := st.Rel(name)
			if got, want := countTuples(t, rs.Scan), len(live[name]); got != want {
				t.Fatalf("step %d (%s): %s has %d tuples, mirror %d", step, op, name, got, want)
			}
			if hits, err := rs.LookupFixed(value.NewString("nope")); err != nil || len(hits) != 0 {
				t.Fatalf("step %d (%s): negative probe on %s: %v, %v", step, op, name, hits, err)
			}
		}
	}

	const steps = 400
	for i := 0; i < steps; i++ {
		op := "noop"
		switch n := rng.Intn(100); {
		case n < 40: // insert
			var existing []string
			for _, name := range st.Relations() {
				existing = append(existing, name)
			}
			if len(existing) == 0 {
				break
			}
			name := existing[rng.Intn(len(existing))]
			tp := randTuple(rng)
			if _, dup := live[name][tp.Key()]; dup {
				break // the engine never writes the same tuple twice
			}
			rs, _ := st.Rel(name)
			if err := rs.Insert(ensureTxn(), tp); err != nil {
				t.Fatalf("step %d: insert into %s: %v", i, name, err)
			}
			live[name][tp.Key()] = tp
			touched[name] = true
			op = "insert " + name
		case n < 60: // delete
			var candidates []string
			for name, m := range live {
				if len(m) > 0 {
					if _, ok := st.Rel(name); ok {
						candidates = append(candidates, name)
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			name := candidates[rng.Intn(len(candidates))]
			var victim tuple.Tuple
			k := rng.Intn(len(live[name]))
			for _, tp := range live[name] {
				if k == 0 {
					victim = tp
					break
				}
				k--
			}
			rs, _ := st.Rel(name)
			if err := rs.Remove(ensureTxn(), victim); err != nil {
				t.Fatalf("step %d: remove from %s: %v", i, name, err)
			}
			delete(live[name], victim.Key())
			touched[name] = true
			op = "delete " + name
		case n < 72: // commit
			commit()
			op = "commit"
		case n < 82: // rollback
			rollback()
			op = "rollback"
		case n < 88: // create (outside any open workload txn)
			commit()
			var missing []string
			for _, name := range names {
				if _, ok := st.Rel(name); !ok {
					missing = append(missing, name)
				}
			}
			if len(missing) == 0 {
				break
			}
			name := missing[rng.Intn(len(missing))]
			ctxn := st.Begin()
			if _, err := st.CreateRelation(ctxn, defOf(name)); err != nil {
				t.Fatalf("step %d: create %s: %v", i, name, err)
			}
			if err := st.Commit(ctxn); err != nil {
				t.Fatal(err)
			}
			live[name] = mirror{}
			committed = copyState(live)
			op = "create " + name
		case n < 93: // drop
			commit()
			existing := st.Relations()
			if len(existing) == 0 {
				break
			}
			name := existing[rng.Intn(len(existing))]
			dtxn := st.Begin()
			if err := st.DropRelation(dtxn, name); err != nil {
				t.Fatalf("step %d: drop %s: %v", i, name, err)
			}
			if err := st.Commit(dtxn); err != nil {
				t.Fatal(err)
			}
			st.CompleteDrop(name)
			delete(live, name)
			committed = copyState(live)
			op = "drop " + name
		default: // reopen
			commit()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = open()
			op = "reopen"
		}
		verify(i, op)
	}
	commit()
	verify(steps, "final commit")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	verify(steps+1, "final reopen")
}

// TestSnapshotIsolationOracle drives the same randomized workload —
// inserts, deletes, commits, rollbacks, creates, drops, reopens — while
// holding several pinned snapshots open across steps. After EVERY step,
// every open snapshot is replayed against a deep copy of the mirror
// oracle frozen at its pin point: same relation set (dropped relations
// included, via the ghost list), same tuple set per relation. Nothing a
// later transaction does — commit, rollback, page reuse after a drop —
// may leak into a pinned view.
func TestSnapshotIsolationOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap-oracle.nfrs")
	rng := rand.New(rand.NewSource(7))
	open := func() *Store {
		st, err := Open(path, Options{PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	defer func() { st.Discard() }()

	names := []string{"A", "B", "C"}
	defOf := func(name string) RelationDef {
		d := testDef(t)
		d.Name = name
		return d
	}
	type mirror map[string]tuple.Tuple
	live := map[string]mirror{}
	committed := map[string]mirror{}
	copyState := func(src map[string]mirror) map[string]mirror {
		out := make(map[string]mirror, len(src))
		for n, m := range src {
			cm := make(mirror, len(m))
			for k, tp := range m {
				cm[k] = tp
			}
			out[n] = cm
		}
		return out
	}

	var txn *Txn
	touched := map[string]bool{}
	ensureTxn := func() *Txn {
		if txn == nil {
			txn = st.Begin()
		}
		return txn
	}
	commit := func() {
		if txn == nil {
			return
		}
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
		txn = nil
		touched = map[string]bool{}
		committed = copyState(live)
	}
	rollback := func() {
		if txn == nil {
			return
		}
		if err := st.Rollback(txn); err != nil {
			t.Fatal(err)
		}
		for name := range touched {
			if rs, ok := st.Rel(name); ok {
				reindexShards(t, rs)
			}
		}
		txn = nil
		touched = map[string]bool{}
		live = copyState(committed)
	}
	randTuple := func(r *rand.Rand) tuple.Tuple {
		pick := func(prefix string, pool, n int) []string {
			out := make([]string, 0, n)
			seen := map[int]bool{}
			for len(out) < n {
				i := r.Intn(pool)
				if seen[i] {
					continue
				}
				seen[i] = true
				out = append(out, fmt.Sprintf("%s%d", prefix, i))
			}
			return out
		}
		return tupleOf([][]string{
			pick("c", 9, 1+r.Intn(2)),
			pick("b", 6, 1),
			pick("s", 8, 1+r.Intn(2)),
		}, defOf("A").Order)
	}

	// pins are open snapshots paired with the committed mirror frozen at
	// their pin point — what each MUST keep seeing until closed.
	type pin struct {
		snap *Snap
		want map[string]mirror
		step int
	}
	var pins []pin
	checkPins := func(step int, op string) {
		t.Helper()
		for _, p := range pins {
			if got, want := len(p.snap.Relations()), len(p.want); got != want {
				t.Fatalf("step %d (%s): pin@%d lists %d relations, mirror had %d",
					step, op, p.step, got, want)
			}
			for name, m := range p.want {
				if !p.snap.Has(name) {
					t.Fatalf("step %d (%s): pin@%d lost relation %s", step, op, p.step, name)
				}
				rel, err := p.snap.Load(name)
				if err != nil {
					t.Fatalf("step %d (%s): pin@%d load %s: %v", step, op, p.step, name, err)
				}
				if rel.Len() != len(m) {
					t.Fatalf("step %d (%s): pin@%d sees %d tuples in %s, mirror had %d",
						step, op, p.step, rel.Len(), name, len(m))
				}
				for i := 0; i < rel.Len(); i++ {
					if _, ok := m[rel.Tuple(i).Key()]; !ok {
						t.Fatalf("step %d (%s): pin@%d sees foreign tuple %v in %s",
							step, op, p.step, rel.Tuple(i), name)
					}
				}
			}
		}
	}
	closePins := func() {
		for _, p := range pins {
			p.snap.Close()
		}
		pins = nil
	}

	const steps = 300
	for i := 0; i < steps; i++ {
		op := "noop"
		switch n := rng.Intn(100); {
		case n < 35: // insert
			existing := st.Relations()
			if len(existing) == 0 {
				break
			}
			name := existing[rng.Intn(len(existing))]
			tp := randTuple(rng)
			if _, dup := live[name][tp.Key()]; dup {
				break
			}
			rs, _ := st.Rel(name)
			if err := rs.Insert(ensureTxn(), tp); err != nil {
				t.Fatalf("step %d: insert into %s: %v", i, name, err)
			}
			live[name][tp.Key()] = tp
			touched[name] = true
			op = "insert " + name
		case n < 50: // delete
			var candidates []string
			for name, m := range live {
				if len(m) > 0 {
					if _, ok := st.Rel(name); ok {
						candidates = append(candidates, name)
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			name := candidates[rng.Intn(len(candidates))]
			var victim tuple.Tuple
			k := rng.Intn(len(live[name]))
			for _, tp := range live[name] {
				if k == 0 {
					victim = tp
					break
				}
				k--
			}
			rs, _ := st.Rel(name)
			if err := rs.Remove(ensureTxn(), victim); err != nil {
				t.Fatalf("step %d: remove from %s: %v", i, name, err)
			}
			delete(live[name], victim.Key())
			touched[name] = true
			op = "delete " + name
		case n < 62: // commit
			commit()
			op = "commit"
		case n < 70: // rollback
			rollback()
			op = "rollback"
		case n < 76: // create
			commit()
			var missing []string
			for _, name := range names {
				if _, ok := st.Rel(name); !ok {
					missing = append(missing, name)
				}
			}
			if len(missing) == 0 {
				break
			}
			name := missing[rng.Intn(len(missing))]
			ctxn := st.Begin()
			if _, err := st.CreateRelation(ctxn, defOf(name)); err != nil {
				t.Fatalf("step %d: create %s: %v", i, name, err)
			}
			if err := st.Commit(ctxn); err != nil {
				t.Fatal(err)
			}
			live[name] = mirror{}
			committed = copyState(live)
			op = "create " + name
		case n < 84: // drop — pinned snapshots must keep reading the ghost
			commit()
			existing := st.Relations()
			if len(existing) == 0 {
				break
			}
			name := existing[rng.Intn(len(existing))]
			dtxn := st.Begin()
			if err := st.DropRelation(dtxn, name); err != nil {
				t.Fatalf("step %d: drop %s: %v", i, name, err)
			}
			if err := st.Commit(dtxn); err != nil {
				t.Fatal(err)
			}
			st.CompleteDrop(name)
			delete(live, name)
			committed = copyState(live)
			op = "drop " + name
		case n < 94: // pin a snapshot and hold it across future steps
			if len(pins) >= 4 {
				pins[0].snap.Close()
				pins = pins[1:]
			}
			pins = append(pins, pin{snap: st.PinSnapshot(), want: copyState(committed), step: i})
			op = "pin"
		default: // reopen — snapshots do not survive the store
			commit()
			checkPins(i, "pre-reopen")
			closePins()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = open()
			op = "reopen"
		}
		checkPins(i, op)
	}
	commit()
	checkPins(steps, "final commit")
	closePins()
	if n := st.Ghosts(); n != 0 {
		t.Fatalf("%d ghost relations left after all pins closed", n)
	}
	if n := st.bp.RetainedVersions(); n != 0 {
		t.Fatalf("%d retained page versions left after all pins closed", n)
	}
	if n := st.bp.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshot pins left after close", n)
	}
}

// TestConcurrentSnapshotReaders runs racing reader goroutines against a
// writer executing multi-statement transactions with commits and
// rollbacks. Each reader pins a snapshot, materializes every visible
// relation twice, and requires (a) both reads identical — a pin never
// drifts — and (b) the view to fingerprint-match SOME state the writer
// committed: never a partial transaction, never a rolled-back one.
// Run under -race in CI.
func TestConcurrentSnapshotReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap-race.nfrs")
	st, err := Open(path, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Discard()

	type mirror map[string]tuple.Tuple
	live := map[string]mirror{}
	names := []string{"A", "B"}
	setup := st.Begin()
	for _, name := range names {
		d := testDef(t)
		d.Name = name
		if _, err := st.CreateRelation(setup, d); err != nil {
			t.Fatal(err)
		}
		live[name] = mirror{}
	}
	if err := st.Commit(setup); err != nil {
		t.Fatal(err)
	}

	// fingerprint canonicalizes a state: relation names and tuple keys,
	// both sorted. The writer records every state it is about to commit;
	// a reader's view must match one of them.
	fingerprint := func(state map[string]mirror) string {
		rels := make([]string, 0, len(state))
		for n := range state {
			rels = append(rels, n)
		}
		sort.Strings(rels)
		var b strings.Builder
		for _, n := range rels {
			keys := make([]string, 0, len(state[n]))
			for k := range state[n] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "%s=%s;", n, strings.Join(keys, ","))
		}
		return b.String()
	}
	var histMu sync.Mutex
	history := map[string]bool{fingerprint(live): true}

	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := st.PinSnapshot()
				view := func() (string, bool) {
					state := map[string]mirror{}
					for _, name := range snap.Relations() {
						rel, err := snap.Load(name)
						if err != nil {
							t.Errorf("reader: load %s: %v", name, err)
							return "", false
						}
						m := mirror{}
						for i := 0; i < rel.Len(); i++ {
							m[rel.Tuple(i).Key()] = rel.Tuple(i)
						}
						state[name] = m
					}
					return fingerprint(state), true
				}
				v1, ok1 := view()
				v2, ok2 := view()
				snap.Close()
				if !ok1 || !ok2 {
					return
				}
				if v1 != v2 {
					t.Errorf("pinned view drifted between reads:\n  %s\n  %s", v1, v2)
					return
				}
				histMu.Lock()
				known := history[v1]
				histMu.Unlock()
				if !known {
					t.Errorf("reader observed a state no transaction committed: %s", v1)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(11))
	randTuple := func() tuple.Tuple {
		pick := func(prefix string, pool, n int) []string {
			out := make([]string, 0, n)
			seen := map[int]bool{}
			for len(out) < n {
				i := rng.Intn(pool)
				if seen[i] {
					continue
				}
				seen[i] = true
				out = append(out, fmt.Sprintf("%s%d", prefix, i))
			}
			return out
		}
		d := testDef(t)
		return tupleOf([][]string{
			pick("c", 9, 1+rng.Intn(2)),
			pick("b", 6, 1),
			pick("s", 8, 1+rng.Intn(2)),
		}, d.Order)
	}
	committed := func(src map[string]mirror) map[string]mirror {
		out := make(map[string]mirror, len(src))
		for n, m := range src {
			cm := make(mirror, len(m))
			for k, tp := range m {
				cm[k] = tp
			}
			out[n] = cm
		}
		return out
	}
	backup := committed(live)

	const txns = 250
	for i := 0; i < txns; i++ {
		txn := st.Begin()
		touched := map[string]bool{}
		nOps := 1 + rng.Intn(4)
		for j := 0; j < nOps; j++ {
			name := names[rng.Intn(len(names))]
			rs, _ := st.Rel(name)
			if rng.Intn(3) > 0 || len(live[name]) == 0 { // insert
				tp := randTuple()
				if _, dup := live[name][tp.Key()]; dup {
					continue
				}
				if err := rs.Insert(txn, tp); err != nil {
					t.Fatalf("txn %d: insert: %v", i, err)
				}
				live[name][tp.Key()] = tp
			} else { // delete
				var victim tuple.Tuple
				k := rng.Intn(len(live[name]))
				for _, tp := range live[name] {
					if k == 0 {
						victim = tp
						break
					}
					k--
				}
				if err := rs.Remove(txn, victim); err != nil {
					t.Fatalf("txn %d: remove: %v", i, err)
				}
				delete(live[name], victim.Key())
			}
			touched[name] = true
		}
		if rng.Intn(5) == 0 { // rollback: this state must never be seen
			if err := st.Rollback(txn); err != nil {
				t.Fatal(err)
			}
			for name := range touched {
				rs, _ := st.Rel(name)
				reindexShards(t, rs)
			}
			live = committed(backup)
			continue
		}
		// record the state BEFORE commit publishes it: a reader pinning
		// mid-publish sees either this state or the previous one
		histMu.Lock()
		history[fingerprint(live)] = true
		histMu.Unlock()
		if err := st.Commit(txn); err != nil {
			t.Fatalf("txn %d: commit: %v", i, err)
		}
		backup = committed(live)
	}
	close(done)
	wg.Wait()
	if n := st.bp.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshot pins left after readers exited", n)
	}
}
