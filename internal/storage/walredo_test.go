package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// refFold is the redo fold of WAL.recover as it stood before page
// buffers were recycled: a fresh Page for every record, so no image can
// alias another by construction. log must start with a whole, valid
// header; the result is the committed images, the batches found and the
// end of the last committed batch.
func refFold(log []byte) (images map[uint32]*Page, batches int, end int64) {
	images = make(map[uint32]*Page)
	size := int64(len(log))
	end = walHeaderSize
	off := end
	pending := make(map[uint32]*Page)
	crcOK := func(rec []byte) bool {
		return crc32.Checksum(rec[:len(rec)-4], crcTable) == binary.LittleEndian.Uint32(rec[len(rec)-4:])
	}
	var lastSeq uint64
	for off < size {
		switch log[off] {
		case walRecPage:
			if off+walPageRecSize > size || !crcOK(log[off:off+walPageRecSize]) {
				return images, batches, end
			}
			img := new(Page)
			copy(img[:], log[off+5:off+5+PageSize])
			pending[binary.LittleEndian.Uint32(log[off+1:off+5])] = img
			off += walPageRecSize
		case walRecDelta:
			if off+walDeltaHdrSize > size {
				return images, batches, end
			}
			pid := binary.LittleEndian.Uint32(log[off+1 : off+5])
			sz := int64(binary.LittleEndian.Uint32(log[off+5 : off+9]))
			recEnd := off + walDeltaHdrSize + sz + 4
			if sz > PageSize || recEnd > size || !crcOK(log[off:recEnd]) {
				return images, batches, end
			}
			img := new(Page)
			switch {
			case pending[pid] != nil:
				*img = *pending[pid]
			case images[pid] != nil:
				*img = *images[pid]
			default:
				return images, batches, end
			}
			if applyDelta(img, log[off+walDeltaHdrSize:recEnd-4]) != nil || img.VerifyChecksum() != nil {
				return images, batches, end
			}
			pending[pid] = img
			off = recEnd
		case walRecCommit:
			if off+walCommitRecSize > size || !crcOK(log[off:off+walCommitRecSize]) {
				return images, batches, end
			}
			seq := binary.LittleEndian.Uint64(log[off+1 : off+9])
			n := binary.LittleEndian.Uint32(log[off+9 : off+13])
			if (batches > 0 && seq != lastSeq+1) || int(n) != len(pending) {
				return images, batches, end
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
			return images, batches, end
		}
	}
	return images, batches, end
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
	payload, ok := diffPage(prev, cur)
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
func nextVersion(t *testing.T, p *Page, rec string) *Page {
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
		if err := w.AppendBatch(pages); err != nil {
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
// cut tears must leave nothing behind: its buffers came from images
// that earlier batches superseded, never from a committed one.
func TestWALRedoEveryOffset(t *testing.T) {
	log := redoLog(t)
	if _, batches, end := refFold(log); batches != 10 || end != int64(len(log)) {
		t.Fatalf("reference fold of the whole log: %d batches, end %d of %d", batches, end, len(log))
	}
	for cut := 0; cut <= len(log); cut++ {
		f := &MemFile{b: append([]byte(nil), log[:cut]...)}
		w, err := OpenWAL("redo.wal", func(string, bool) (File, error) { return f, nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want, batches, end := map[uint32]*Page{}, 0, int64(0)
		if cut >= walHeaderSize {
			want, batches, end = refFold(log[:cut])
		}
		st := w.Stats()
		if st.RecoveredBatches != batches || w.Size() != end || st.TornTailBytes != cut-int(end) || int64(len(f.b)) != end {
			t.Fatalf("cut %d: %d batches, size %d, %d torn bytes, file %d; reference: %d batches, end %d",
				cut, st.RecoveredBatches, w.Size(), st.TornTailBytes, len(f.b), batches, end)
		}
		got := w.CommittedImages()
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d images, reference has %d", cut, len(got), len(want))
		}
		buffers := make(map[*Page]uint32)
		for pid, img := range got {
			if want[pid] == nil || *img != *want[pid] {
				t.Fatalf("cut %d: image of page %d differs from the reference fold", cut, pid)
			}
			if other, shared := buffers[img]; shared {
				t.Fatalf("cut %d: pages %d and %d share a buffer", cut, pid, other)
			}
			buffers[img] = pid
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
	if err := w.AppendBatch(first); err != nil {
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
		if err := w.AppendBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return f.b
}

// BenchmarkWALRecover opens a 500-batch delta log (4 500 delta records
// over 64 pages) on a file whose Sync returns at once; the reference
// sub-benchmark is the allocate-per-record fold on the same bytes.
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
			if _, batches, _ := refFold(log); batches != 501 {
				b.Fatalf("folded %d batches", batches)
			}
		}
	})
}
