package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestPageInsertGetDelete(t *testing.T) {
	var p Page
	p.Init()
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Error("same slot twice")
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "hello" {
		t.Errorf("Get(s1) = %q, %v", got, err)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); err != ErrBadSlot {
		t.Error("deleted slot readable")
	}
	if err := p.Delete(s1); err != ErrBadSlot {
		t.Error("double delete accepted")
	}
	got, err = p.Get(s2)
	if err != nil || string(got) != "world!" {
		t.Error("surviving record corrupted")
	}
	// slot reuse
	s3, err := p.Insert([]byte("again"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("tombstone not reused: %d vs %d", s3, s1)
	}
}

func TestPageEdgeCases(t *testing.T) {
	var p Page
	p.Init()
	if _, err := p.Insert(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := p.Insert(make([]byte, PageSize)); err == nil {
		t.Error("oversized record accepted")
	}
	if _, err := p.Get(-1); err != ErrBadSlot {
		t.Error("negative slot accepted")
	}
	if _, err := p.Get(0); err != ErrBadSlot {
		t.Error("unallocated slot accepted")
	}
	if err := p.Delete(5); err != ErrBadSlot {
		t.Error("bad delete accepted")
	}
}

func TestPageFullAndCompact(t *testing.T) {
	var p Page
	p.Init()
	rec := make([]byte, 100)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if len(slots) < 30 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// delete every other record, compact, then more must fit
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.Compact()
	if _, err := p.Insert(rec); err != nil {
		t.Errorf("insert after compact: %v", err)
	}
	// survivors intact
	for i := 1; i < len(slots); i += 2 {
		if _, err := p.Get(slots[i]); err != nil {
			t.Errorf("slot %d lost after compact", slots[i])
		}
	}
}

func TestPageNextChain(t *testing.T) {
	var p Page
	p.Init()
	if p.Next() != 0 {
		t.Error("fresh page has next")
	}
	p.SetNext(42)
	if p.Next() != 42 {
		t.Error("SetNext failed")
	}
}

func TestPagerAllocateReadWrite(t *testing.T) {
	pg, _, _ := newWALPool(t, 4)
	pid, err := pg.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pid != 1 {
		t.Errorf("first pid = %d", pid)
	}
	var p Page
	p.Init()
	p.Insert([]byte("persisted"))
	if err := pg.Write(pid, &p); err != nil {
		t.Fatal(err)
	}
	var q Page
	if err := pg.Read(pid, &q); err != nil {
		t.Fatal(err)
	}
	rec, err := q.Get(0)
	if err != nil || string(rec) != "persisted" {
		t.Error("page did not round-trip through file")
	}
	if err := pg.Read(99, &q); err == nil {
		t.Error("read of unallocated page accepted")
	}
	if err := pg.Write(0, &p); err == nil {
		t.Error("write of page 0 accepted")
	}
	if pg.NumPages() != 1 {
		t.Errorf("NumPages = %d", pg.NumPages())
	}
}

func TestPagerReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "re.db")
	pg, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := pg.Allocate()
	var p Page
	p.Init()
	p.Insert([]byte("durable"))
	pg.Write(pid, &p)
	pg.Sync()
	pg.Close()

	pg2, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	if pg2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", pg2.NumPages())
	}
	var q Page
	if err := pg2.Read(pid, &q); err != nil {
		t.Fatal(err)
	}
	rec, err := q.Get(0)
	if err != nil || string(rec) != "durable" {
		t.Error("data lost across reopen")
	}
}

func TestBufferPoolPinEvict(t *testing.T) {
	_, _, bp := newWALPool(t, 2)
	txn := bp.Begin()
	var pids []uint32
	for i := 0; i < 4; i++ {
		fr, err := bp.NewPage(txn)
		if err != nil {
			t.Fatal(err)
		}
		fr.Page().Insert([]byte{byte(i + 1)})
		pids = append(pids, fr.PID())
		if err := bp.Unpin(fr, true); err != nil {
			t.Fatal(err)
		}
		// committed frames are clean, so the next allocation may evict
		if _, err := bp.CommitTxn(txn); err != nil {
			t.Fatal(err)
		}
	}
	// all four pages readable despite capacity 2 (commits wrote through)
	for i, pid := range pids {
		fr, err := bp.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := fr.Page().Get(0)
		if err != nil || rec[0] != byte(i+1) {
			t.Errorf("page %d content lost", pid)
		}
		bp.Unpin(fr, false)
	}
	_, misses, evictions := bp.Stats()
	if evictions == 0 || misses == 0 {
		t.Error("expected evictions and misses")
	}

	// A pinned frame is never evicted, so never reused for another page,
	// while ten other pages cycle through the one frame left.
	for i := 4; i < 14; i++ {
		fr, err := bp.NewPage(txn)
		if err != nil {
			t.Fatal(err)
		}
		fr.Page().Insert([]byte{byte(i + 1)})
		pids = append(pids, fr.PID())
		if err := bp.Unpin(fr, true); err != nil {
			t.Fatal(err)
		}
		if _, err := bp.CommitTxn(txn); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := bp.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	want := *pinned.Page()
	for _, pid := range pids[4:] {
		fr, err := bp.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if fr == pinned {
			t.Fatalf("page %d loaded into the frame pinned for page %d", pid, pids[0])
		}
		bp.Unpin(fr, false)
	}
	if pinned.PID() != pids[0] || *pinned.Page() != want {
		t.Errorf("pinned frame of page %d changed under its pin (now page %d)", pids[0], pinned.PID())
	}
	bp.Unpin(pinned, false)
}

// memPool returns a read-only pool of the given capacity over a
// MemFile holding n committed empty pages, ids 1..n.
func memPool(t testing.TB, capacity, n int) *BufferPool {
	t.Helper()
	pg, err := NewPager(&MemFile{})
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.Init()
	for i := 0; i < n; i++ {
		pid, err := pg.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Write(pid, &p); err != nil {
			t.Fatal(err)
		}
	}
	bp, err := NewBufferPool(pg, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// getUnpin pins page pid for reading and releases it.
func getUnpin(t testing.TB, bp *BufferPool, pid uint32) {
	fr, err := bp.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, false); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolAllocs: a hit and a miss that evicts a clean frame
// allocate nothing. The LRU list keeps every cached frame, so an unpin
// moves an element instead of allocating one, and a miss reuses the
// frame it evicted.
func TestBufferPoolAllocs(t *testing.T) {
	bp := memPool(t, 1, 2)
	getUnpin(t, bp, 1)
	if n := testing.AllocsPerRun(100, func() { getUnpin(t, bp, 1) }); n != 0 {
		t.Errorf("pool hit: %v allocations, want 0", n)
	}
	pid := uint32(1)
	if n := testing.AllocsPerRun(100, func() {
		pid = 3 - pid
		getUnpin(t, bp, pid)
	}); n != 0 {
		t.Errorf("pool miss at capacity: %v allocations, want 0", n)
	}
	if hits, misses, evictions := bp.Stats(); hits < 100 || misses < 100 || evictions < 100 {
		t.Errorf("stats = %d hits, %d misses, %d evictions; want ≥ 100 each", hits, misses, evictions)
	}
}

// BenchmarkBufferPoolGet: one op pins a page and releases it. "hit"
// reads a cached page; "miss" alternates two pages through a
// one-frame pool, so every op evicts a clean frame and reads the data
// file; "getmut" claims a cached page under a transaction and releases
// the claim unmodified.
func BenchmarkBufferPoolGet(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		bp := memPool(b, 8, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			getUnpin(b, bp, 1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		bp := memPool(b, 1, 2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			getUnpin(b, bp, uint32(1+i%2))
		}
	})
	b.Run("getmut", func(b *testing.B) {
		_, _, bp := newWALPool(b, 8)
		txn := bp.Begin()
		fr, err := bp.NewPage(txn)
		if err != nil {
			b.Fatal(err)
		}
		pid := fr.PID()
		bp.Unpin(fr, true)
		if _, err := bp.CommitTxn(txn); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr, err := bp.GetMut(txn, pid)
			if err != nil {
				b.Fatal(err)
			}
			if err := bp.Unpin(fr, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBufferPoolAllPinned: with every frame pinned there is nothing to
// evict, so the pool overflows its capacity instead of failing.
func TestBufferPoolAllPinned(t *testing.T) {
	_, _, bp := newWALPool(t, 1)
	txn := bp.Begin()
	fr, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	fr2, err := bp.NewPage(txn)
	if err != nil {
		t.Fatalf("NewPage with every frame pinned: %v", err)
	}
	if got := bp.Snapshot().Overflows; got != 1 {
		t.Errorf("Overflows = %d, want 1", got)
	}
	bp.Unpin(fr2, false)
	if err := bp.Unpin(fr, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, false); err == nil {
		t.Error("double unpin accepted")
	}
}

// TestReadOnlyPool: a pool with no WAL attached serves reads and
// refuses every mutation.
func TestReadOnlyPool(t *testing.T) {
	pg, _, bp := newWALPool(t, 2)
	txn := bp.Begin()
	pid := dirtyNewPage(t, bp, txn, "x")
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}
	ro, err := NewBufferPool(pg, 2)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ro.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Unpin(fr, true); err == nil {
		t.Error("dirty unpin on a read-only pool accepted")
	}
	if err := ro.Unpin(fr, false); err != nil {
		t.Fatal(err)
	}
	rtxn := ro.Begin()
	if _, err := ro.GetMut(rtxn, pid); err == nil {
		t.Error("GetMut on a read-only pool accepted")
	}
	if _, err := ro.NewPage(rtxn); err == nil {
		t.Error("NewPage on a read-only pool accepted")
	}
	if _, err := ro.CommitTxn(rtxn); err == nil {
		t.Error("CommitTxn on a read-only pool accepted")
	}
}

func TestBufferPoolValidation(t *testing.T) {
	pg, _, _ := newWALPool(t, 1)
	if _, err := NewBufferPool(pg, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestPageValidate(t *testing.T) {
	var p Page
	p.Init()
	if _, err := p.Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid page rejected: %v", err)
	}
	// a zero page (torn write) has freeStart below the header
	var zero Page
	if err := zero.Validate(); err == nil {
		t.Error("zero page accepted")
	}
	// slot directory overflowing the page
	var huge Page
	huge.Init()
	huge[0], huge[1] = 0xFF, 0xFF // numSlots = 65535
	if err := huge.Validate(); err == nil {
		t.Error("oversized slot directory accepted")
	}
	// live slot pointing past the record area
	var bad Page
	bad.Init()
	if _, err := bad.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	bad.setSlot(0, PageSize-1, 8)
	if err := bad.Validate(); err == nil {
		t.Error("out-of-area slot accepted")
	}
	// a corrupt page read through the pool surfaces as a clean error
	pg, _, bp := newWALPool(t, 2)
	txn := bp.Begin()
	pid := dirtyNewPage(t, bp, txn, "x")
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}
	// the checkpoint drops the log's repair image of the page
	if err := bp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var junk Page
	junk[0], junk[1] = 0xFF, 0xFF
	if err := pg.Write(pid, &junk); err != nil {
		t.Fatal(err)
	}
	// evict the clean cached copy so the next Get re-reads from disk
	fr2, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(fr2, false)
	fr3, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(fr3, false)
	if _, err := bp.Get(pid); err == nil {
		t.Error("corrupt page loaded through pool without error")
	}
}

func TestHeapInsertGetDeleteScan(t *testing.T) {
	_, _, bp := newWALPool(t, 8)
	txn := bp.Begin()
	h, err := CreateHeap(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 300; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{'x'}, i%60))))
		rid, err := h.Insert(txn, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// spans multiple pages
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages < 2 {
		t.Errorf("expected multi-page heap, got %d pages", st.Pages)
	}
	if st.LiveRecords != 300 {
		t.Errorf("LiveRecords = %d", st.LiveRecords)
	}
	// point reads
	for i, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !bytes.HasPrefix(rec, []byte(fmt.Sprintf("record-%04d", i))) {
			t.Fatalf("wrong record at %v: %q", rid, rec)
		}
	}
	// delete a third
	for i := 0; i < len(rids); i += 3 {
		if err := h.Delete(txn, rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := h.Scan(func(rid RID, rec []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Errorf("scan found %d records, want 200", count)
	}
	// early stop
	count = 0
	h.Scan(func(RID, []byte) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop scanned %d", count)
	}
}

func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	pg, w, bp := openWALPool(t, path, 4)
	txn := bp.Begin()
	h, err := CreateHeap(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	first := h.FirstPage()
	for i := 0; i < 500; i++ {
		if _, err := h.Insert(txn, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}
	if err := bp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	pg.Close()

	_, _, bp2 := openWALPool(t, path, 4)
	h2 := OpenHeapAt(bp2, first)
	st, err := h2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveRecords != 500 {
		t.Errorf("reopened heap has %d records", st.LiveRecords)
	}
	// insertion continues at the end of the chain
	if _, err := h2.Insert(bp2.Begin(), []byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
}

// Property-style stress: random inserts/deletes tracked against a map,
// verified by scan, across a small buffer pool (forcing evictions).
func TestHeapRandomizedAgainstModel(t *testing.T) {
	_, _, bp := newWALPool(t, 3)
	txn := bp.Begin()
	h, err := CreateHeap(bp, txn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	model := map[RID]string{}
	var live []RID
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			rec := fmt.Sprintf("v%d-%d", step, rng.Intn(1000))
			rid, err := h.Insert(txn, []byte(rec))
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = rec
			live = append(live, rid)
		} else {
			i := rng.Intn(len(live))
			rid := live[i]
			if err := h.Delete(txn, rid); err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// only committed (clean) frames are evictable
		if step%20 == 0 {
			if _, err := bp.CommitTxn(txn); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := map[RID]string{}
	if err := h.Scan(func(rid RID, rec []byte) bool {
		got[rid] = string(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan %d records, model %d", len(got), len(model))
	}
	for rid, want := range model {
		if got[rid] != want {
			t.Fatalf("rid %v: %q != %q", rid, got[rid], want)
		}
	}
}
