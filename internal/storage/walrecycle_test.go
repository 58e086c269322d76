package storage

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"math"
	"testing"
)

// walCommits walks the records of log from the header to end, which
// must be the end of a commit record or of the header, and returns each
// commit record's seq and lsn.
func walCommits(t *testing.T, log []byte, end int64) (seqs, lsns []uint64) {
	t.Helper()
	off, batch := int64(walHeaderSize), int64(walHeaderSize)
	for off < end {
		switch log[off] {
		case walRecPage:
			off += walPageRecSize
		case walRecDelta:
			off += walDeltaHdrSize + int64(binary.LittleEndian.Uint32(log[off+5:])) + 4
		case walRecCommit:
			seqs = append(seqs, binary.LittleEndian.Uint64(log[off+1:]))
			lsns = append(lsns, binary.LittleEndian.Uint64(log[off+13:]))
			off += walCommitRecSize
			batch = off
		default:
			t.Fatalf("recovered log holds tag %q at %d", log[off], off)
		}
	}
	if off != end {
		t.Fatalf("recovered end %d is inside a record that ends at %d", end, off)
	}
	if batch != end {
		t.Fatalf("recovered end %d is inside the batch that begins at %d", end, batch)
	}
	return seqs, lsns
}

// fileBytes returns the whole of the named MemFS file.
func fileBytes(t testing.TB, m *MemFS, name string) []byte {
	t.Helper()
	f, err := m.Open(name, false)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := f.Size()
	b := make([]byte, n)
	f.ReadAt(b, 0)
	return b
}

// fuzzLog writes gen1 batches to a log in m, checkpoints, and writes
// gen2 more over the retired ones. Batch i logs page 1+i%3, one record
// longer each time, so pages come back as full images and deltas.
func fuzzLog(t testing.TB, m *MemFS, gen1, gen2 int) *WAL {
	t.Helper()
	w, err := OpenWAL("f.wal", m.Open)
	if err != nil {
		t.Fatal(err)
	}
	imgs := map[uint32]*Page{}
	for i := 0; i < gen1+gen2; i++ {
		pid := uint32(1 + i%3)
		if imgs[pid] == nil {
			imgs[pid] = pageWithRecord(t, "base")
		}
		imgs[pid] = nextVersion(t, imgs[pid], string(rune('a'+i%26)))
		if err := appendBatch(w, []WALPage{{pid, imgs[pid]}}); err != nil {
			t.Fatal(err)
		}
		if i+1 == gen1 {
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// FuzzWALRecover feeds recovery a log a writer left — gen1 batches, a
// checkpoint, gen2 batches over the retired ones — with its header's
// clock optionally rewritten (clock != 0) or torn, and arbitrary bytes
// written at its committed end. Recovery must not panic, must return
// whole batches with consecutive sequence numbers and, when the
// header's clock CRC holds, LSNs above that clock; and after one more
// batch is appended, reopening must return exactly what it returned
// before plus that batch. Every image it keeps must pass its page
// checksum, and it must keep what refFold, the fold that checks every
// delta as it goes, keeps from the same bytes — except where refFold
// stopped at a reconstruction that failed its checksum, which a later
// record can repair: then it must keep at least as many batches.
func FuzzWALRecover(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint64(0), false, []byte(nil))                   // a retired generation behind a short current one
	f.Add(uint8(4), uint8(0), uint64(0), false, []byte(nil))                   // an empty current generation
	f.Add(uint8(0), uint8(3), uint64(0), false, make([]byte, 2*PageSize))      // a zero tail
	f.Add(uint8(3), uint8(1), uint64(0), true, []byte(nil))                    // a torn header clock
	f.Add(uint8(2), uint8(2), uint64(3), false, []byte{walRecCommit, 1, 2, 3}) // a clock that retires a batch of the current generation
	f.Add(uint8(0), uint8(3), uint64(0), false, tornGroupThenBatch(f))         // the reordered crash
	f.Add(uint8(4), uint8(3), uint64(0), false, []byte(nil))                   // a retired delta folds onto a current image and fails its checksum
	f.Fuzz(func(t *testing.T, gen1, gen2 uint8, clock uint64, tornClock bool, tail []byte) {
		if gen1%12+gen2%12 == 0 {
			return // no batch, no log file
		}
		m := NewMemFS()
		w := fuzzLog(t, m, int(gen1%12), int(gen2%12))
		end := w.Size()
		w.Close()
		file, _ := m.Open("f.wal", false)
		if clock != 0 {
			var c [12]byte
			binary.LittleEndian.PutUint64(c[:8], clock)
			binary.LittleEndian.PutUint32(c[8:], crc32.Checksum(c[:8], crcTable))
			file.WriteAt(c[:], 16)
		}
		if tornClock {
			file.WriteAt([]byte{fileBytes(t, m, "f.wal")[24] ^ 1}, 24)
		}
		file.WriteAt(tail, end)

		log := fileBytes(t, m, "f.wal")
		w1, err := OpenWAL("f.wal", m.Open)
		if err != nil {
			t.Fatalf("recovery refused the log: %v", err)
		}
		seqs, lsns := walCommits(t, log, w1.Size())
		hdrValid := crc32.Checksum(log[16:24], crcTable) == binary.LittleEndian.Uint32(log[24:28])
		for i := range seqs {
			if i > 0 && seqs[i] != seqs[i-1]+1 {
				t.Fatalf("recovered seqs %v are not consecutive", seqs)
			}
			if hdrValid && lsns[i] <= binary.LittleEndian.Uint64(log[16:24]) {
				t.Fatalf("recovered lsn %d is not above the header's clock %d", lsns[i], binary.LittleEndian.Uint64(log[16:24]))
			}
		}
		ref, refBatches, refEnd, broke := refFold(log)
		for pid, img := range w1.CommittedImages() {
			if img.VerifyChecksum() != nil {
				t.Fatalf("recovered page %d fails its checksum", pid)
			}
			if !broke && (ref[pid] == nil || *ref[pid] != *img) {
				t.Fatalf("recovered page %d is not the reference fold's", pid)
			}
		}
		st := w1.Stats()
		if !broke && (st.RecoveredBatches != refBatches || w1.Size() != refEnd || len(w1.CommittedImages()) != len(ref)) ||
			broke && w1.Size() < refEnd {
			t.Fatalf("recovered %d batches to %d; the reference fold %d batches to %d (ended on a failed fold: %v)",
				st.RecoveredBatches, w1.Size(), refBatches, refEnd, broke)
		}
		if st.RecoveredBatches != len(seqs) {
			t.Fatalf("recovered %d batches, the log's prefix holds %d", st.RecoveredBatches, len(seqs))
		}
		kept := int64(len(log)) // a tail of zeros stays allocated
		if !allZero(log[w1.Size():]) {
			kept = w1.Size()
		}
		if size, _ := file.Size(); size != kept || st.TornTailBytes != len(log)-int(kept) {
			t.Fatalf("a tail of %d bytes left a file of %d and %d torn bytes; want %d", len(log)-int(w1.Size()), size, st.TornTailBytes, kept)
		}
		if w1.Clock() == math.MaxUint64 {
			return // no LSN is above it
		}
		prefix := append([]byte(nil), log[:w1.Size()]...)
		want := maps.Clone(w1.CommittedImages())
		next := pageWithRecord(t, "next")
		if err := appendBatch(w1, []WALPage{{7, next}}); err != nil {
			t.Fatal(err)
		}
		want[7] = next
		w1.Close()

		w2, err := OpenWAL("f.wal", m.Open)
		if err != nil {
			t.Fatalf("reopen after one more batch: %v", err)
		}
		defer w2.Close()
		log = fileBytes(t, m, "f.wal")
		if got := w2.Stats().RecoveredBatches; got != len(seqs)+1 || string(log[:len(prefix)]) != string(prefix) {
			t.Fatalf("reopen recovered %d batches, want %d; prefix kept: %v", got, len(seqs)+1, string(log[:len(prefix)]) == string(prefix))
		}
		got := w2.CommittedImages()
		if len(got) != len(want) {
			t.Fatalf("reopen holds %d pages, want %d", len(got), len(want))
		}
		for pid, img := range want {
			if got[pid] == nil || *got[pid] != *img {
				t.Fatalf("reopen: page %d is not the image recovered before (or appended)", pid)
			}
		}
	})
}

// tornGroupThenBatch is the tail a reordered crash can leave after
// three batches: the first half of a two-batch group, then the whole
// batch committed after it.
func tornGroupThenBatch(f *testing.F) []byte {
	m := NewMemFS()
	w := fuzzLog(f, m, 0, 3)
	at := w.Size()
	if err := w.AppendGroup([][]WALPage{{{5, pageWithRecord(f, "g1")}}, {{6, pageWithRecord(f, "g2")}}}, w.Clock()+1); err != nil {
		f.Fatal(err)
	}
	group := w.Size()
	if err := appendBatch(w, []WALPage{{5, pageWithRecord(f, "later")}}); err != nil {
		f.Fatal(err)
	}
	log := fileBytes(f, m, "f.wal")
	return append(append([]byte(nil), log[at:at+(group-at)/2]...), log[group:w.Size()]...)
}

// TestWALTornExtension tears the append that extends a log past
// walPreallocFrom at cuts inside its records, at their end, inside the
// zeros and at the write's end. A cut inside the records recovers the
// batches before it and truncates the torn bytes; a cut past them
// recovers the batch and keeps the zeros as allocated space. Either
// way one more batch appends and reopens onto exactly that prefix.
func TestWALTornExtension(t *testing.T) {
	m := NewMemFS()
	w, err := OpenWAL("f.wal", m.Open)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; w.Size() < walPreallocFrom; n++ {
		if err := appendBatch(w, []WALPage{{uint32(n + 1), pageWithRecord(t, "fill")}}); err != nil {
			t.Fatal(err)
		}
	}
	pre := fileBytes(t, m, "f.wal")
	if int64(len(pre)) != w.Size() {
		t.Fatalf("a log under the threshold grew to %d bytes, its records end at %d", len(pre), w.Size())
	}
	if err := appendBatch(w, []WALPage{{500, pageWithRecord(t, "extends")}}); err != nil {
		t.Fatal(err)
	}
	full := fileBytes(t, m, "f.wal")
	rec := w.Size() - int64(len(pre))
	if int64(len(full)) != w.Size()+walPreallocBy {
		t.Fatalf("the extending append left a file of %d bytes, its records end at %d", len(full), w.Size())
	}
	w.Close()
	write := full[len(pre):]
	for _, cut := range []int64{1, rec / 2, rec - 1, rec, rec + 1, rec + PageSize, int64(len(write)) - 1, int64(len(write))} {
		torn := NewMemFS()
		f, _ := torn.Open("f.wal", true)
		f.WriteAt(pre, 0)
		f.WriteAt(write[:cut], int64(len(pre)))
		w1, err := OpenWAL("f.wal", torn.Open)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		batches, end, size := n, int64(len(pre)), int64(len(pre))
		if cut >= rec {
			batches, end, size = n+1, end+rec, end+cut
		}
		st := w1.Stats()
		if got, _ := f.Size(); st.RecoveredBatches != batches || w1.Size() != end || got != size || int64(st.TornTailBytes) != int64(len(pre))+cut-size {
			t.Fatalf("cut %d: recovered %d batches to %d in a file of %d (%d torn bytes); want %d to %d in %d",
				cut, st.RecoveredBatches, w1.Size(), got, st.TornTailBytes, batches, end, size)
		}
		if err := appendBatch(w1, []WALPage{{600, pageWithRecord(t, "after")}}); err != nil {
			t.Fatal(err)
		}
		after := w1.Size()
		w1.Close()
		w2, err := OpenWAL("f.wal", torn.Open)
		if err != nil {
			t.Fatal(err)
		}
		if st := w2.Stats(); st.RecoveredBatches != batches+1 || w2.Size() != after {
			t.Fatalf("cut %d: reopen after one more batch recovered %d batches to %d, want %d to %d",
				cut, st.RecoveredBatches, w2.Size(), batches+1, after)
		}
		w2.Close()
	}
}
