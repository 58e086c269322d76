package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// refFold is the redo fold of WAL.recover as it stood before recovery
// split into a structural pass and a fold: a fresh Page for every
// record, so no image can alias another by construction, and every
// delta's reconstruction checked against its page checksum as it is
// folded. log must start with a whole, valid header; the result is the
// committed images, the batches found, the end of the last committed
// batch, and whether the scan ended at a reconstruction that failed its
// page checksum rather than at a structural fault.
func refFold(log []byte) (images map[uint32]*Page, batches int, end int64, broke bool) {
	images = make(map[uint32]*Page)
	size := int64(len(log))
	end = walHeaderSize
	off := end
	pending := make(map[uint32]*Page)
	crcOK := func(rec []byte) bool {
		return crc32.Checksum(rec[:len(rec)-4], crcTable) == binary.LittleEndian.Uint32(rec[len(rec)-4:])
	}
	var hdrClock uint64
	if crcOK(log[16:walHeaderSize]) {
		hdrClock = binary.LittleEndian.Uint64(log[16:24])
	}
	var lastSeq uint64
	for off < size {
		switch log[off] {
		case walRecPage:
			if off+walPageRecSize > size || !crcOK(log[off:off+walPageRecSize]) {
				return images, batches, end, false
			}
			img := new(Page)
			copy(img[:], log[off+5:off+5+PageSize])
			pending[binary.LittleEndian.Uint32(log[off+1:off+5])] = img
			off += walPageRecSize
		case walRecDelta:
			if off+walDeltaHdrSize > size {
				return images, batches, end, false
			}
			pid := binary.LittleEndian.Uint32(log[off+1 : off+5])
			sz := int64(binary.LittleEndian.Uint32(log[off+5 : off+9]))
			recEnd := off + walDeltaHdrSize + sz + 4
			if sz > PageSize || recEnd > size || !crcOK(log[off:recEnd]) {
				return images, batches, end, false
			}
			img := new(Page)
			switch {
			case pending[pid] != nil:
				*img = *pending[pid]
			case images[pid] != nil:
				*img = *images[pid]
			default:
				return images, batches, end, false
			}
			if applyDelta(img, log[off+walDeltaHdrSize:recEnd-4]) != nil {
				return images, batches, end, false
			}
			if img.VerifyChecksum() != nil {
				return images, batches, end, true
			}
			pending[pid] = img
			off = recEnd
		case walRecCommit:
			if off+walCommitRecSize > size || !crcOK(log[off:off+walCommitRecSize]) {
				return images, batches, end, false
			}
			seq := binary.LittleEndian.Uint64(log[off+1 : off+9])
			n := binary.LittleEndian.Uint32(log[off+9 : off+13])
			lsn := binary.LittleEndian.Uint64(log[off+13 : off+21])
			if (batches > 0 && seq != lastSeq+1) || int(n) != len(pending) || lsn <= hdrClock {
				return images, batches, end, false
			}
			for pid, img := range pending {
				images[pid] = img
			}
			pending = make(map[uint32]*Page)
			lastSeq = seq
			batches++
			off += walCommitRecSize
			end = off
		default:
			return images, batches, end, false
		}
	}
	return images, batches, end, false
}

// The record builders write the log format by hand, for the shapes
// AppendGroup never produces (two records for one page in one batch).

func sealRecord(rec []byte) []byte {
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, crcTable))
}

func pageRecord(pid uint32, img *Page) []byte {
	rec := binary.LittleEndian.AppendUint32([]byte{walRecPage}, pid)
	return sealRecord(append(rec, img[:]...))
}

func deltaRecord(t *testing.T, pid uint32, prev, cur *Page) []byte {
	t.Helper()
	payload, ok := diffPage(nil, prev, cur)
	if !ok {
		t.Fatal("the two versions differ by more than a delta holds")
	}
	rec := binary.LittleEndian.AppendUint32([]byte{walRecDelta}, pid)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	return sealRecord(append(rec, payload...))
}

func commitRecord(seq uint64, npages int, lsn uint64) []byte {
	rec := binary.LittleEndian.AppendUint64([]byte{walRecCommit}, seq)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(npages))
	return sealRecord(binary.LittleEndian.AppendUint64(rec, lsn))
}

// nextVersion returns a copy of p with one more record and a fresh
// checksum.
func nextVersion(t testing.TB, p *Page, rec string) *Page {
	t.Helper()
	q := *p
	if _, err := q.Insert([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	q.StampChecksum()
	return &q
}

// redoLog builds a log of ten batches: first-touch images, deltas to
// one page across batches, a merged three-batch AppendGroup whose
// middle batch first touches a new page, and — written by hand, since
// AppendGroup logs a page once per batch — a batch with an image and a
// delta for one page and a batch with two deltas for one page.
func redoLog(t *testing.T) []byte {
	t.Helper()
	f := &MemFile{}
	w, err := OpenWAL("redo.wal", func(string, bool) (File, error) { return f, nil })
	if err != nil {
		t.Fatal(err)
	}
	v1 := map[uint32]*Page{1: pageWithRecord(t, "one"), 2: pageWithRecord(t, "two"), 3: pageWithRecord(t, "three")}
	appendBatch := func(pages ...WALPage) {
		t.Helper()
		if err := appendBatch(w, pages); err != nil {
			t.Fatal(err)
		}
	}
	appendBatch(WALPage{1, v1[1]}, WALPage{2, v1[2]}, WALPage{3, v1[3]})
	p1 := nextVersion(t, v1[1], "one-b")
	appendBatch(WALPage{1, p1})
	p1 = nextVersion(t, p1, "one-c")
	p2 := nextVersion(t, v1[2], "two-b")
	appendBatch(WALPage{1, p1}, WALPage{2, p2})
	p1d := nextVersion(t, p1, "one-d")
	p2c := nextVersion(t, p2, "two-c")
	p4 := pageWithRecord(t, "four")
	if err := w.AppendGroup([][]WALPage{
		{{1, p1d}},
		{{4, p4}, {3, nextVersion(t, v1[3], "three-b")}},
		{{2, p2c}},
	}, w.Clock()+1); err != nil {
		t.Fatal(err)
	}
	p1e := nextVersion(t, p1d, "one-e")
	appendBatch(WALPage{4, nextVersion(t, p4, "four-b")}, WALPage{1, p1e})
	if st := w.Stats(); st.Batches != 7 || st.FullPages != 4 || st.DeltaPages != 8 || st.Fsyncs != 5 {
		t.Fatalf("record mix of the appended part = %+v", st)
	}
	log := append([]byte(nil), f.b...)
	// batch 8: page 5 first touched as an image, then a delta onto it;
	// page 2 as a delta onto its committed image
	p5 := pageWithRecord(t, "five")
	p5b := nextVersion(t, p5, "five-b")
	log = append(log, pageRecord(5, p5)...)
	log = append(log, deltaRecord(t, 2, p2c, nextVersion(t, p2c, "two-d"))...)
	log = append(log, deltaRecord(t, 5, p5, p5b)...)
	log = append(log, commitRecord(8, 2, 6)...)
	// batch 9: two deltas to page 1, the second against the first
	p1f := nextVersion(t, p1e, "one-f")
	p1g := nextVersion(t, p1f, "one-g")
	log = append(log, deltaRecord(t, 1, p1e, p1f)...)
	log = append(log, deltaRecord(t, 1, p1f, p1g)...)
	log = append(log, commitRecord(9, 1, 7)...)
	// batch 10 supersedes images of batches 8 and 9
	log = append(log, deltaRecord(t, 5, p5b, nextVersion(t, p5b, "five-c"))...)
	log = append(log, deltaRecord(t, 1, p1g, nextVersion(t, p1g, "one-h"))...)
	log = append(log, commitRecord(10, 2, 8)...)
	return log
}

// TestWALRedoEveryOffset cuts the log at every byte and holds the
// recovered images to the reference fold, byte for byte. A batch the
// cut tears must leave nothing behind, and no two pages may share a
// buffer.
func TestWALRedoEveryOffset(t *testing.T) {
	log := redoLog(t)
	if _, batches, end, _ := refFold(log); batches != 10 || end != int64(len(log)) {
		t.Fatalf("reference fold of the whole log: %d batches, end %d of %d", batches, end, len(log))
	}
	for cut := 0; cut <= len(log); cut++ {
		requireRefFold(t, fmt.Sprintf("cut %d", cut), log[:cut])
	}
}

// TestWALRedoRecycledEveryOffset tears the current generation of a
// recycled log at every byte: the bytes before the cut are the current
// generation's, those after it the longer retired generation's. Where
// the cut falls on a retired record boundary, retired deltas follow for
// pages the current generation has already logged, so they have a base
// and a valid CRC but fold into a page that fails its checksum; the
// retired commit record after them ends the log by the generation rule.
// Every cut must recover what the reference fold does.
func TestWALRedoRecycledEveryOffset(t *testing.T) {
	retired, current := NewMemFS(), NewMemFS()
	fuzzLog(t, retired, 12, 0).Close()
	w := fuzzLog(t, current, 12, 5)
	end := w.Size()
	w.Close()
	old, log := fileBytes(t, retired, "f.wal"), fileBytes(t, current, "f.wal")
	if int64(len(old)) <= end || len(log) != len(old) {
		t.Fatalf("the current generation ends at %d in a file of %d; the retired one is %d long", end, len(log), len(old))
	}
	stale := 0
	for cut := int64(walHeaderSize); cut <= end; cut++ {
		image := append(append([]byte(nil), log[:cut]...), old[cut:]...)
		if _, _, _, broke := refFold(image); broke {
			stale++
		}
		requireRefFold(t, fmt.Sprintf("cut %d", cut), image)
	}
	if stale == 0 {
		t.Fatal("no cut left a retired delta that folds onto a current image")
	}
}

// requireRefFold opens a log holding the bytes log and requires what it
// recovers to be what refFold recovers from them: the same batches,
// end, images and torn bytes, the file cut to that end, and one buffer
// per page. Where refFold stopped at a structural fault, LogEnd must
// find its end too.
func requireRefFold(t *testing.T, name string, log []byte) {
	t.Helper()
	f := &MemFile{b: append([]byte(nil), log...)}
	w, err := OpenWAL("redo.wal", func(string, bool) (File, error) { return f, nil })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, batches, end, broke := map[uint32]*Page{}, 0, int64(0), false
	if len(log) >= walHeaderSize {
		want, batches, end, broke = refFold(log)
	}
	if logEnd, err := LogEnd(log); err != nil || !broke && logEnd != end {
		t.Fatalf("%s: LogEnd = %d, %v; reference end %d", name, logEnd, err, end)
	}
	st := w.Stats()
	if st.RecoveredBatches != batches || w.Size() != end || st.TornTailBytes != len(log)-int(end) || int64(len(f.b)) != end {
		t.Fatalf("%s: %d batches, size %d, %d torn bytes, file %d; reference: %d batches, end %d",
			name, st.RecoveredBatches, w.Size(), st.TornTailBytes, len(f.b), batches, end)
	}
	got := w.CommittedImages()
	if len(got) != len(want) {
		t.Fatalf("%s: %d images, reference has %d", name, len(got), len(want))
	}
	buffers := make(map[*Page]uint32)
	for pid, img := range got {
		if want[pid] == nil || *img != *want[pid] {
			t.Fatalf("%s: image of page %d differs from the reference fold", name, pid)
		}
		if other, shared := buffers[img]; shared {
			t.Fatalf("%s: pages %d and %d share a buffer", name, pid, other)
		}
		buffers[img] = pid
	}
}

// TestWALRedoBrokenFold holds recovery to the reference fold on logs
// whose records are all whole and CRC-valid but where one delta folds
// its page into an image that fails its page checksum: the batch that
// holds it and everything after it are dropped, as a torn tail is.
// Recovery checks each page once, after the fold, so a later record
// that leaves the page valid again keeps the batches after it too.
func TestWALRedoBrokenFold(t *testing.T) {
	f := &MemFile{}
	w, err := OpenWAL("redo.wal", func(string, bool) (File, error) { return f, nil })
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := pageWithRecord(t, "one"), pageWithRecord(t, "two")
	if err := appendBatch(w, []WALPage{{1, p1}, {2, p2}}); err != nil {
		t.Fatal(err)
	}
	p1b := nextVersion(t, p1, "one-b")
	if err := appendBatch(w, []WALPage{{1, p1b}}); err != nil {
		t.Fatal(err)
	}
	head := append([]byte(nil), f.b...)
	// broken is p2 with a record added and the stale checksum kept
	broken := *nextVersion(t, p2, "two-b")
	copy(broken[checksumOff:checksumOff+4], p2[checksumOff:checksumOff+4])
	breaking := func(seq uint64) []byte {
		rec := append(deltaRecord(t, 1, p1b, nextVersion(t, p1b, "one-c")), deltaRecord(t, 2, p2, &broken)...)
		return append(rec, commitRecord(seq, 2, seq)...)
	}
	p1c := nextVersion(t, p1b, "one-c")
	later := append(deltaRecord(t, 1, p1c, nextVersion(t, p1c, "one-d")), commitRecord(4, 1, 4)...)
	restamped := *nextVersion(t, &broken, "two-c")
	repair := append(deltaRecord(t, 2, &broken, &restamped), commitRecord(4, 1, 4)...)
	// a delta whose page no earlier record names ends the log by structure
	requireRefFold(t, "a delta with no base", append(append(append([]byte(nil), head...), deltaRecord(t, 3, p1, p1b)...), commitRecord(3, 1, 3)...))
	for _, tc := range []struct {
		name    string
		log     []byte
		batches int
	}{
		{"last batch", append(append([]byte(nil), head...), breaking(3)...), 2},
		{"middle batch", append(append(append([]byte(nil), head...), breaking(3)...), later...), 2},
		{"repaired by a later batch", append(append(append([]byte(nil), head...), breaking(3)...), repair...), 4},
	} {
		if _, batches, _, broke := refFold(tc.log); !broke || batches != 2 {
			t.Fatalf("%s: the reference fold found %d batches, broke %v", tc.name, batches, broke)
		}
		if tc.batches == 2 {
			requireRefFold(t, tc.name, tc.log)
			continue
		}
		g := &MemFile{b: append([]byte(nil), tc.log...)}
		w, err := OpenWAL("redo.wal", func(string, bool) (File, error) { return g, nil })
		if err != nil {
			t.Fatal(err)
		}
		img, _ := w.Image(2)
		if st := w.Stats(); st.RecoveredBatches != tc.batches || w.Size() != int64(len(tc.log)) || img != restamped {
			t.Fatalf("%s: %d batches to %d of %d", tc.name, st.RecoveredBatches, w.Size(), len(tc.log))
		}
	}
}

// walRecoverLog is a log of n one-page delta batches over pages pages,
// each first logged as an image: the shape of an uncheckpointed run of
// autocommit statements.
func walRecoverLog(tb testing.TB, pages, n int) []byte {
	f := &MemFile{}
	w, err := OpenWAL("bench.wal", func(string, bool) (File, error) { return f, nil })
	if err != nil {
		tb.Fatal(err)
	}
	cur := make([]Page, pages)
	var first []WALPage
	for i := range cur {
		cur[i].Init()
		cur[i].StampChecksum()
		first = append(first, WALPage{uint32(i + 1), &cur[i]})
	}
	if err := appendBatch(w, first); err != nil {
		tb.Fatal(err)
	}
	for b := 0; b < n; b++ {
		// nine pages a batch, as one autocommit insert logs
		var batch []WALPage
		for k := 0; k < 9; k++ {
			i := (b*9 + k) % pages
			p := &cur[i]
			if _, err := p.Insert([]byte(fmt.Sprintf("record %d of batch %d", k, b))); err != nil {
				p.Init()
			}
			p.StampChecksum()
			batch = append(batch, WALPage{uint32(i + 1), p})
		}
		if err := appendBatch(w, batch); err != nil {
			tb.Fatal(err)
		}
	}
	return f.b
}

// BenchmarkWALRecover opens a 500-batch delta log (4 500 delta records
// over 64 pages) on a file whose Sync returns at once: one structural
// pass, one in-place fold per page and 64 page checksums. The reference
// sub-benchmark is refFold on the same bytes, a fresh buffer per record
// and a page checksum per delta.
func BenchmarkWALRecover(b *testing.B) {
	log := walRecoverLog(b, 64, 500)
	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(log)))
		for i := 0; i < b.N; i++ {
			f := &MemFile{b: log}
			w, err := OpenWAL("bench.wal", func(string, bool) (File, error) { return f, nil })
			if err != nil || w.Stats().RecoveredBatches != 501 {
				b.Fatalf("recovered %d batches: %v", w.Stats().RecoveredBatches, err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(log)))
		for i := 0; i < b.N; i++ {
			if _, batches, _, _ := refFold(log); batches != 501 {
				b.Fatalf("folded %d batches", batches)
			}
		}
	})
}
