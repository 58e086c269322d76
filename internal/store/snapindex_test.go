package store

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// TestSnapLookupsAcrossTreeChanges: a pinned Snap's point and range
// lookups keep returning the answer of their pin across committed
// B+tree changes — a leaf split, a root split, an empty-leaf unlink —
// and after the relation is dropped and another relation reuses its
// freed pages. The fan-out is clamped to 4 entries a node so each
// change takes a few rows.
func TestSnapLookupsAcrossTreeChanges(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "db.nfrs"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	def := testDef(t)
	write := func(fn func(txn *Txn) error) {
		t.Helper()
		txn := st.Begin()
		if err := fn(txn); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	var rs *RelStore
	write(func(txn *Txn) (err error) {
		rs, err = st.CreateRelation(txn, def)
		return err
	})
	rs.Shard(0).SetRangeIndexMaxEntries(4)
	student := func(i int) tuple.Tuple {
		return tupleOf([][]string{{fmt.Sprintf("c%d", i%3)}, {"b1"}, {fmt.Sprintf("s%02d", i)}}, def.Order)
	}
	insert := func(lo, hi int) {
		write(func(txn *Txn) error {
			for i := lo; i < hi; i++ {
				if err := rs.Insert(txn, student(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	shape := func() (height, leaves int) {
		sh := rs.Shard(0)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, leaves, err := sh.rangeD.PageCounts()
		if err != nil {
			t.Fatal(err)
		}
		return sh.rangeD.Height(), leaves
	}
	// answer renders what sn's lookups of R1 return: a probe of every
	// student s00..s41 and three ranges, each as its sorted tuple keys.
	answer := func(sn *Snap) string {
		t.Helper()
		var b strings.Builder
		emit := func(what string, ts []tuple.Tuple, err error) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			keys := make([]string, len(ts))
			for i, tp := range ts {
				keys[i] = tp.Key()
			}
			slices.Sort(keys)
			fmt.Fprintf(&b, "%s=%s\n", what, strings.Join(keys, ","))
		}
		for i := 0; i < 42; i++ {
			ts, err := sn.LookupFixed("R1", value.NewString(fmt.Sprintf("s%02d", i)))
			emit(fmt.Sprintf("s%02d", i), ts, err)
		}
		for _, w := range [][2]string{{"s00", "s99"}, {"s03", "s09"}, {"s05", "s33"}} {
			ts, _, err := sn.ScanFixedRange("R1", &RangeBound{Atom: value.NewString(w[0]), Incl: true}, &RangeBound{Atom: value.NewString(w[1])})
			emit(w[0]+".."+w[1], ts, err)
		}
		return b.String()
	}
	type pin struct {
		what string
		sn   *Snap
		want string
	}
	var pins []pin
	pinNow := func(what string) {
		sn := st.PinSnapshot()
		pins = append(pins, pin{what, sn, answer(sn)})
	}
	check := func(after string) {
		t.Helper()
		for _, p := range pins {
			if got := answer(p.sn); got != p.want {
				t.Fatalf("after %s, the pin taken %s answers\n%s\nwant\n%s", after, p.what, got, p.want)
			}
		}
	}

	insert(0, 6)
	if h, _ := shape(); h != 2 {
		t.Fatalf("height %d after 6 rows, want 2", h)
	}
	pinNow("at height 2")
	_, leaves := shape()
	insert(6, 8)
	if h, l := shape(); h != 2 || l <= leaves {
		t.Fatalf("after 2 more rows: height %d, %d leaves (were %d); want a leaf split under the same root", h, l, leaves)
	}
	check("a leaf split")
	pinNow("after a leaf split")
	insert(8, 40)
	if h, _ := shape(); h < 3 {
		t.Fatalf("height %d after 40 rows, want a root split to 3", h)
	}
	check("a root split")
	pinNow("after a root split")
	_, leaves = shape()
	write(func(txn *Txn) error {
		for i := 36; i < 40; i++ {
			if err := rs.Remove(txn, student(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if _, l := shape(); l >= leaves {
		t.Fatalf("%d leaves after deleting the last 4 rows, were %d: no empty leaf was unlinked", l, leaves)
	}
	check("an empty-leaf unlink")
	pinNow("after an empty-leaf unlink")

	old, err := rs.pages()
	if err != nil {
		t.Fatal(err)
	}
	write(func(txn *Txn) error { return st.DropRelation(txn, "R1") })
	st.CompleteDrop("R1")
	def2 := testDef(t)
	def2.Name = "R2"
	var rs2 *RelStore
	write(func(txn *Txn) (err error) {
		if rs2, err = st.CreateRelation(txn, def2); err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			if err := rs2.Insert(txn, tupleOf([][]string{{"c9"}, {"b9"}, {fmt.Sprintf("r%03d", i)}}, def2.Order)); err != nil {
				return err
			}
		}
		return nil
	})
	reused, err := rs2.pages()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(reused, func(pid uint32) bool { return slices.Contains(old, pid) }) {
		t.Fatalf("R2's pages %v reuse none of dropped R1's %v", reused, old)
	}
	check("a drop and the reuse of its pages")
	for _, p := range pins {
		p.sn.Close()
	}
	if n := st.bp.Snapshot().RetainedVersions; n != 0 {
		t.Fatalf("%d page versions retained after every pin closed", n)
	}
	if n := st.ghostCount(); n != 0 {
		t.Fatalf("%d ghost relations after every pin closed", n)
	}
}
