package crashfs

import (
	"bytes"
	"maps"
	"testing"

	"repro/internal/storage"
)

// TestStateAroundSync: in order, a crash keeps every write before the
// cut; reordered, it keeps only what the last sync before the torn op
// covered, plus the torn op's prefix.
func TestStateAroundSync(t *testing.T) {
	fsys := New(nil)
	base := fsys.Record()
	f, _ := fsys.Open("f", true)
	g, _ := fsys.Open("g", true)
	f.WriteAt([]byte("ab"), 0)
	f.Sync()
	g.WriteAt([]byte("xy"), 0)
	f.WriteAt([]byte("cd"), 2)
	j := fsys.Journal()
	if j.End() != 6 {
		t.Fatalf("journal ends at %d, want 6", j.End())
	}
	for _, tc := range []struct {
		k                  int64
		inOrder, reordered map[string]string
	}{
		{0, map[string]string{"f": ""}, map[string]string{"f": ""}},
		{1, map[string]string{"f": "a"}, map[string]string{"f": "a"}},
		{3, map[string]string{"f": "ab", "g": "x"}, map[string]string{"f": "ab", "g": "x"}},
		{4, map[string]string{"f": "ab", "g": "xy"}, map[string]string{"f": "ab"}},
		{5, map[string]string{"f": "abc", "g": "xy"}, map[string]string{"f": "abc"}},
		{6, map[string]string{"f": "abcd", "g": "xy"}, map[string]string{"f": "ab"}},
	} {
		for _, c := range []Cut{{tc.k, false}, {tc.k, true}} {
			want := tc.inOrder
			if c.Reordered {
				want = tc.reordered
			}
			got := state(base, j, c)
			if !maps.EqualFunc(got, want, func(b []byte, s string) bool { return bytes.Equal(b, []byte(s)) }) {
				t.Errorf("%v: files %q, want %q", c, got, want)
			}
		}
	}
}

// TestClassesAreExact: for three small journals, in both modes, the
// class each cut is given is the digest of that cut's own image, and so
// the classes reach exactly the images materialising every cut does.
func TestClassesAreExact(t *testing.T) {
	page := func(pid uint32, recs ...string) *storage.Page {
		p := new(storage.Page)
		p.Init()
		for _, r := range recs {
			if _, err := p.Insert([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		p.SetLSN(uint64(pid))
		p.StampChecksum()
		return p
	}
	twoPages := func() *FS {
		fsys := New(nil)
		f, _ := fsys.Open("db", true)
		f.WriteAt(page(1, "a")[:], 0)
		f.WriteAt(page(2, "b")[:], storage.PageSize)
		return fsys
	}

	// a three-batch merged log append: a page, a delta onto a page the
	// log already holds, and another page
	logFS := New(nil)
	w, err := storage.OpenWAL("db.wal", logFS.Open)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]storage.WALPage{{PID: 1, Img: page(1, "a")}}); err != nil {
		t.Fatal(err)
	}
	logBase := logFS.Record()
	if err := w.AppendGroup([][]storage.WALPage{
		{{PID: 2, Img: page(2, "b")}},
		{{PID: 1, Img: page(1, "a", "c")}},
		{{PID: 3, Img: page(3, "d")}},
	}, w.Clock()+1); err != nil {
		t.Fatal(err)
	}
	if w.Stats().DeltaPages != 1 {
		t.Fatal("the group logged no delta")
	}

	// a data-file page overwrite
	overFS := twoPages()
	overBase := overFS.Record()
	f, _ := overFS.Open("db", true)
	f.WriteAt(page(2, "b", "e")[:], storage.PageSize)
	f.Sync()

	// an extending page write, then a truncate back
	extFS := twoPages()
	extBase := extFS.Record()
	f, _ = extFS.Open("db", true)
	f.WriteAt(page(3, "f")[:], 2*storage.PageSize)
	f.Sync()
	f.Truncate(2 * storage.PageSize)

	for _, tc := range []struct {
		name string
		base map[string][]byte
		j    Journal
	}{
		{"merged log append", logBase, logFS.Journal()},
		{"page overwrite", overBase, overFS.Journal()},
		{"extend and truncate", extBase, extFS.Journal()},
	} {
		for _, reordered := range []bool{false, true} {
			byClass, byCut := map[digest]bool{}, map[digest]bool{}
			next := int64(0)
			classes(tc.base, tc.j, reordered, func(from, to int64, d digest) {
				if from != next || to < from {
					t.Fatalf("%s: run [%d, %d] after cut %d", tc.name, from, to, next-1)
				}
				next = to + 1
				byClass[d] = true
				for k := from; k <= to; k++ {
					c := Cut{k, reordered}
					own := canonical(state(tc.base, tc.j, c))
					byCut[own] = true
					if own != d {
						t.Fatalf("%s %v: the cut's image is not its class's", tc.name, c)
					}
				}
			})
			if next != tc.j.End()+1 {
				t.Fatalf("%s: runs end at cut %d, journal at %d", tc.name, next-1, tc.j.End())
			}
			if !maps.Equal(byClass, byCut) {
				t.Fatalf("%s: classes reach %d images, the cuts %d", tc.name, len(byClass), len(byCut))
			}
			t.Logf("%s, reordered=%v: %d cuts, %d images", tc.name, reordered, next, len(byCut))
		}
	}
}
