package store

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// rewindShards re-attaches every shard of rs to its reverted pages, as
// the engine does for the shards a rolled-back Tx touched.
func rewindShards(t *testing.T, rs *RelStore) {
	t.Helper()
	for _, sh := range rs.shards {
		if err := sh.Rewind(); err != nil {
			t.Fatalf("Rewind(%s) after rollback: %v", rs.def.Name, err)
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
// committed one, after reopen the recovered one. Relation A's tree
// holds at most 4 entries a node, so root splits and leaf unlinks
// happen inside transactions that roll back, and after each rollback
// every tree's height is its committed height again.
//
// The walk is a function of its seed: two walks with seed 1 must log
// the same steps, so a failing step replays.
func TestDurableIndexOracle(t *testing.T) {
	first := durableIndexWalk(t, 1)
	second := durableIndexWalk(t, 1)
	for i := range min(len(first), len(second)) {
		if first[i] != second[i] {
			t.Fatalf("two walks with seed 1 part at step %d: %q, then %q", i, first[i], second[i])
		}
	}
	if len(first) != len(second) {
		t.Fatalf("two walks with seed 1 logged %d and %d steps", len(first), len(second))
	}
}

// durableIndexWalk is TestDurableIndexOracle's walk from seed; it
// returns each step's operation, with the tuple it wrote.
func durableIndexWalk(t *testing.T, seed int64) []string {
	path := filepath.Join(t.TempDir(), "oracle.nfrs")
	rng := rand.New(rand.NewSource(seed))
	// capA sets relation A's fan-out, an in-memory knob lost on reopen
	capA := func(st *Store) {
		if rs, ok := st.Rel("A"); ok {
			for _, sh := range rs.shards {
				sh.SetRangeIndexMaxEntries(4)
			}
		}
	}
	open := func() *Store {
		st, err := Open(path, Options{PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		capA(st)
		return st
	}
	st := open()
	defer func() { st.Discard() }()
	// heights reads every shard's tree height, by relation
	heights := func() map[string][]int {
		out := map[string][]int{}
		for _, name := range st.Relations() {
			rs, _ := st.Rel(name)
			for _, sh := range rs.shards {
				out[name] = append(out[name], sh.rangeD.Height())
			}
		}
		return out
	}
	committedH := heights()

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
		committedH = heights()
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
			rewindShards(t, rs)
		}
		if got := heights(); !reflect.DeepEqual(got, committedH) {
			t.Fatalf("tree heights %v after rollback, committed %v", got, committedH)
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
			if got, want := countTuples(t, rs.scan), len(live[name]); got != want {
				t.Fatalf("step %d (%s): %s has %d tuples, mirror %d", step, op, name, got, want)
			}
			if hits, err := rs.LookupFixed(value.NewString("nope")); err != nil || len(hits) != 0 {
				t.Fatalf("step %d (%s): negative probe on %s: %v, %v", step, op, name, hits, err)
			}
		}
	}

	const steps = 400
	var walk []string
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
			op = "insert " + name + " " + tp.Key()
		case n < 60: // delete
			var candidates []string
			for _, name := range sortedKeys(live) {
				if len(live[name]) > 0 {
					if _, ok := st.Rel(name); ok {
						candidates = append(candidates, name)
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			name := candidates[rng.Intn(len(candidates))]
			victim := pickTuple(rng, live[name])
			rs, _ := st.Rel(name)
			if err := rs.Remove(ensureTxn(), victim); err != nil {
				t.Fatalf("step %d: remove from %s: %v", i, name, err)
			}
			delete(live[name], victim.Key())
			touched[name] = true
			op = "delete " + name + " " + victim.Key()
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
			capA(st)
			live[name] = mirror{}
			committed = copyState(live)
			committedH = heights()
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
			committedH = heights()
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
		walk = append(walk, op)
	}

	// Whatever the walk did, roll back one root split and one leaf
	// unlink of relation A's tree.
	commit()
	if _, ok := st.Rel("A"); !ok {
		ctxn := st.Begin()
		if _, err := st.CreateRelation(ctxn, defOf("A")); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(ctxn); err != nil {
			t.Fatal(err)
		}
		capA(st)
		live["A"] = mirror{}
		commit()
	}
	rs, _ := st.Rel("A")
	tree := rs.shards[0].rangeD
	leaves := func() int {
		_, n, err := tree.PageCounts()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	own := func(k int) tuple.Tuple {
		return tupleOf([][]string{{"c0"}, {"b0"}, {fmt.Sprintf("own%d", k)}}, defOf("A").Order)
	}
	for k := 0; k < 40; k++ {
		if err := rs.Insert(ensureTxn(), own(k)); err != nil {
			t.Fatal(err)
		}
		live["A"][own(k).Key()] = own(k)
	}
	commit()
	h0, l0 := tree.Height(), leaves()
	for k := 40; tree.Height() == h0; k++ {
		if k == 1000 {
			t.Fatalf("1000 inserts left the height at %d", h0)
		}
		if err := rs.Insert(ensureTxn(), own(k)); err != nil {
			t.Fatal(err)
		}
		touched["A"] = true
	}
	rollback()
	verify(steps, "rolled-back root split")
	for k := 0; leaves() >= l0; k++ {
		if k == 40 {
			t.Fatal("40 deletes unlinked no leaf")
		}
		if err := rs.Remove(ensureTxn(), own(k)); err != nil {
			t.Fatal(err)
		}
		touched["A"] = true
	}
	rollback()
	if released := tree.TakeReleased(); leaves() != l0 || len(released) != 0 {
		t.Fatalf("rolled-back unlink left %d leaves (committed %d) and %d pages released", leaves(), l0, len(released))
	}
	verify(steps, "rolled-back leaf unlink")
	commit()
	verify(steps, "final commit")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	verify(steps+1, "final reopen")
	return walk
}

// TestSnapshotIsolationOracle drives the same randomized workload —
// inserts, deletes, commits, rollbacks, creates, drops, reopens — while
// holding several pinned snapshots open across steps. After EVERY step,
// every open snapshot is replayed against a deep copy of the mirror
// oracle frozen at its pin point: same relation set (dropped relations
// included, via the ghost list), same tuple set per relation. Nothing a
// later transaction does — commit, rollback, page reuse after a drop —
// may leak into a pinned view, and the snapshot's point and range
// lookups through the B+trees give the same tuples as its heap read.
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
				rewindShards(t, rs)
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
			if got, want := len(visibleRels(p.snap, names)), len(p.want); got != want {
				t.Fatalf("step %d (%s): pin@%d lists %d relations, mirror had %d",
					step, op, p.step, got, want)
			}
			for name, m := range p.want {
				if _, ok := p.snap.Def(name); !ok {
					t.Fatalf("step %d (%s): pin@%d lost relation %s", step, op, p.step, name)
				}
				rel, err := p.snap.LoadCtx(context.Background(), name, nil)
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
				if err := checkIndexedReads(p.snap, name, m); err != nil {
					t.Fatalf("step %d (%s): pin@%d: %v", step, op, p.step, err)
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
			for _, name := range sortedKeys(live) {
				if len(live[name]) > 0 {
					if _, ok := st.Rel(name); ok {
						candidates = append(candidates, name)
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			name := candidates[rng.Intn(len(candidates))]
			victim := pickTuple(rng, live[name])
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
	if n := st.ghostCount(); n != 0 {
		t.Fatalf("%d ghost relations left after all pins closed", n)
	}
	if n := st.bp.Snapshot().RetainedVersions; n != 0 {
		t.Fatalf("%d retained page versions left after all pins closed", n)
	}
	if n := st.bp.Snapshot().PinnedSnapshots; n != 0 {
		t.Fatalf("%d snapshot pins left after close", n)
	}
}

// TestConcurrentSnapshotReaders runs racing reader goroutines against a
// writer executing multi-statement transactions with commits and
// rollbacks. Each reader pins a snapshot, materializes every visible
// relation twice, and requires (a) both reads identical — a pin never
// drifts — and (b) the view to fingerprint-match SOME state the writer
// committed: never a partial transaction, never a rolled-back one; (c)
// the pin's point and range lookups agree with its heap read.
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
					for _, name := range visibleRels(snap, names) {
						rel, err := snap.LoadCtx(context.Background(), name, nil)
						if err != nil {
							t.Errorf("reader: load %s: %v", name, err)
							return "", false
						}
						m := mirror{}
						for i := 0; i < rel.Len(); i++ {
							m[rel.Tuple(i).Key()] = rel.Tuple(i)
						}
						if err := checkIndexedReads(snap, name, m); err != nil {
							t.Errorf("reader: %v", err)
							return "", false
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
				victim := pickTuple(rng, live[name])
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
				rewindShards(t, rs)
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
	if n := st.bp.Snapshot().PinnedSnapshots; n != 0 {
		t.Fatalf("%d snapshot pins left after readers exited", n)
	}
}

// sortedKeys returns m's keys in order, so a seeded walk that picks
// one of them picks the same one every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// pickTuple returns the tuple of m under a key rng picks among m's
// sorted keys.
func pickTuple(rng *rand.Rand, m map[string]tuple.Tuple) tuple.Tuple {
	keys := sortedKeys(m)
	return m[keys[rng.Intn(len(keys))]]
}

// visibleRels returns the names the snapshot resolves, in order.
func visibleRels(snap *Snap, names []string) []string {
	var out []string
	for _, name := range names {
		if _, ok := snap.Def(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// checkIndexedReads holds a pinned snapshot's B+tree reads of name to
// want, the relation's tuples at the pin keyed by Tuple.Key: the
// unbounded range returns want, and a probe of each student in
// indexProbes (the seeded workloads draw s0..s7), and a range from it
// to the next, return the tuples of want holding such a student, each
// once.
func checkIndexedReads(snap *Snap, name string, want map[string]tuple.Tuple) error {
	def, ok := snap.Def(name)
	if !ok {
		return fmt.Errorf("%s is not visible", name)
	}
	fixed := def.Order[len(def.Order)-1]
	same := func(what string, got []tuple.Tuple, keep func(a value.Atom) bool) error {
		seen := map[string]bool{}
		for _, tp := range got {
			k := tp.Key()
			if _, ok := want[k]; !ok || seen[k] || !slices.ContainsFunc(tp.Set(fixed).Atoms(), keep) {
				return fmt.Errorf("%s of %s returned %v: not in the pinned state, not in the window, or twice", what, name, tp)
			}
			seen[k] = true
		}
		for k, tp := range want {
			if !seen[k] && slices.ContainsFunc(tp.Set(fixed).Atoms(), keep) {
				return fmt.Errorf("%s of %s lost %v", what, name, tp)
			}
		}
		return nil
	}
	all, _, err := snap.ScanFixedRange(name, nil, nil)
	if err == nil {
		err = same("unbounded range", all, func(value.Atom) bool { return true })
	}
	for i, s := range indexProbes {
		if err != nil {
			return err
		}
		a := value.NewString(s)
		var got []tuple.Tuple
		if got, err = snap.LookupFixed(name, a); err == nil {
			err = same("lookup "+s, got, func(b value.Atom) bool { return value.Compare(a, b) == 0 })
		}
		if err != nil || i+1 == len(indexProbes) {
			continue
		}
		hi := value.NewString(indexProbes[i+1])
		if got, _, err = snap.ScanFixedRange(name, &RangeBound{Atom: a, Incl: true}, &RangeBound{Atom: hi}); err == nil {
			err = same("range ["+s+", "+hi.S+")", got, func(b value.Atom) bool {
				return value.Compare(a, b) <= 0 && value.Compare(b, hi) < 0
			})
		}
	}
	return err
}

// indexProbes are checkIndexedReads' probe students, in order; s9 is
// never stored.
var indexProbes = []string{"s0", "s2", "s3", "s6", "s7", "s9"}
