package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pageWithRecord(t testing.TB, rec string) *Page {
	t.Helper()
	var p Page
	p.Init()
	if _, err := p.Insert([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	p.StampChecksum()
	return &p
}

// TestWALAppendRecover: batches appended and fsync'd must come back as
// committed images on reopen, with the latest image per page winning.
func TestWALAppendRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("WAL file created before first append")
	}
	p1a := pageWithRecord(t, "one-a")
	p2 := pageWithRecord(t, "two")
	if err := appendBatch(w, []WALPage{{1, p1a}, {2, p2}}); err != nil {
		t.Fatal(err)
	}
	p1b := pageWithRecord(t, "one-b")
	if err := appendBatch(w, []WALPage{{1, p1b}}); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Batches != 2 || st.PagesLogged != 3 || st.Fsyncs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := w2.Stats()
	if st2.RecoveredBatches != 2 || st2.RecoveredPages != 3 {
		t.Fatalf("recovered stats = %+v", st2)
	}
	images := w2.CommittedImages()
	if len(images) != 2 {
		t.Fatalf("recovered %d images, want 2", len(images))
	}
	got, err := images[1].Get(0)
	if err != nil || string(got) != "one-b" {
		t.Fatalf("page 1 image = %q, %v (want latest)", got, err)
	}
	if img, ok := w2.Image(2); !ok {
		t.Fatal("page 2 image missing")
	} else if rec, _ := img.Get(0); string(rec) != "two" {
		t.Fatalf("page 2 image = %q", rec)
	}
	// appends continue past recovery with the next sequence number
	if err := appendBatch(w2, []WALPage{{3, pageWithRecord(t, "three")}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st3 := w3.Stats(); st3.RecoveredBatches != 3 {
		t.Fatalf("after continued append, recovered %d batches", st3.RecoveredBatches)
	}
	w3.Close()
}

// TestWALTornTail: truncating the log at every byte offset must recover
// exactly the batches whose commit record survived intact — never an
// error, never a partial batch.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // committed end offsets after each batch
	for i := 0; i < 3; i++ {
		if err := appendBatch(w, []WALPage{
			{uint32(2*i + 1), pageWithRecord(t, "a")},
			{uint32(2*i + 2), pageWithRecord(t, "b")},
		}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut += 101 {
		p2 := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p2, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(p2, nil)
		if cut < walHeaderSize && cut > 0 {
			// header itself torn: corrupt, not a torn tail
			if err == nil {
				w2.Close()
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantBatches := 0
		for _, e := range ends {
			if cut >= e {
				wantBatches++
			}
		}
		if st := w2.Stats(); st.RecoveredBatches != wantBatches {
			t.Fatalf("cut %d: recovered %d batches, want %d", cut, st.RecoveredBatches, wantBatches)
		}
		w2.Close()
	}
}

// TestWALReset: a checkpoint rewinds the log to its header and drops
// the retained images; reopen finds nothing to replay.
func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(w, []WALPage{{1, pageWithRecord(t, "x")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(w.CommittedImages()) != 0 {
		t.Fatal("images survive reset")
	}
	if w.Size() != walHeaderSize {
		t.Fatalf("size after reset = %d", w.Size())
	}
	w.Close()
	w2, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.RecoveredBatches != 0 {
		t.Fatalf("recovered %d batches after reset", st.RecoveredBatches)
	}
	w2.Close()
}

// TestWALRecoverAfterCheckpointSeq: a checkpoint rewinds the log but
// does not reset the batch sequence counter, so the first batch after a
// checkpoint starts at seq N+1. Reopen must accept that starting point
// (a regression here silently discarded every post-checkpoint batch).
func TestWALRecoverAfterCheckpointSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(w, []WALPage{{uint32(i + 1), pageWithRecord(t, "x")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil { // checkpoint: log rewound, seq = 3
		t.Fatal(err)
	}
	if err := appendBatch(w, []WALPage{{9, pageWithRecord(t, "after")}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.RecoveredBatches != 1 || st.RecoveredPages != 1 {
		t.Fatalf("post-checkpoint batch not recovered: %+v", st)
	}
	if _, ok := w2.Image(9); !ok {
		t.Fatal("post-checkpoint image missing")
	}
}

// TestChecksumRepairFromWAL: a committed page whose data-file copy is
// torn afterwards must be detected by the pool's checksum check and
// healed from the WAL's committed image, transparently to the reader.
func TestChecksumRepairFromWAL(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db")
	pg, err := OpenPager(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	w, err := OpenWAL(dbPath+".wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(pg, 2)
	if err != nil {
		t.Fatal(err)
	}
	bp.AttachWAL(w)

	txn := bp.Begin()
	fr, err := bp.NewPage(txn)
	if err != nil {
		t.Fatal(err)
	}
	pid := fr.PID()
	if _, err := fr.Page().Insert([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(fr, true); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.CommitTxn(txn); err != nil {
		t.Fatal(err)
	}

	// tear the page on disk behind the pool's back
	f, err := os.OpenFile(dbPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 512)
	for i := range junk {
		junk[i] = 0xDB
	}
	if _, err := f.WriteAt(junk, int64(pid-1)*PageSize+1000); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// evict the clean cached copy so Get must re-read from disk: filler
	// pages (committed so they are clean and evictable) push it out
	for i := 0; i < 4; i++ {
		ftxn := bp.Begin()
		nf, err := bp.NewPage(ftxn)
		if err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(nf, false); err != nil {
			t.Fatal(err)
		}
		if _, err := bp.CommitTxn(ftxn); err != nil {
			t.Fatal(err)
		}
	}

	fr2, err := bp.Get(pid)
	if err != nil {
		t.Fatalf("torn committed page not repaired: %v", err)
	}
	rec, err := fr2.Page().Get(0)
	if err != nil || string(rec) != "precious" {
		t.Fatalf("repaired page content = %q, %v", rec, err)
	}
	bp.Unpin(fr2, false)
	if st := bp.Snapshot(); st.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", st.Repairs)
	}
	// and the data file itself was healed
	var onDisk Page
	if err := pg.Read(pid, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := onDisk.VerifyChecksum(); err != nil {
		t.Fatalf("data file not healed: %v", err)
	}

	// without a committed image the failure surfaces as an error
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	f, _ = os.OpenFile(dbPath, os.O_RDWR, 0o644)
	f.WriteAt(junk, int64(pid-1)*PageSize+500)
	f.Close()
	// evict again
	for i := 0; i < 4; i++ {
		ftxn := bp.Begin()
		nf, _ := bp.NewPage(ftxn)
		bp.Unpin(nf, false)
		bp.CommitTxn(ftxn) //nolint:errcheck // crash-injection path: errors expected
	}
	if _, err := bp.Get(pid); err == nil {
		t.Fatal("torn page with no WAL image loaded without error")
	}
}

// TestWALRefusesOtherVersions: only format version 3 is readable. A
// sidecar with a well-formed header of another version is refused with
// ErrCorrupt naming both versions, and is left byte-for-byte as it
// was; a torn version-3 header is still an empty log.
func TestWALRefusesOtherVersions(t *testing.T) {
	img := pageWithRecord(t, "old")
	// one full-image batch in the pre-LSN commit record shape
	rec := []byte{'P'}
	rec = binary.LittleEndian.AppendUint32(rec, 7)
	rec = append(rec, img[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, crcTable))
	commit := []byte{'C'}
	commit = binary.LittleEndian.AppendUint64(commit, 1)
	commit = binary.LittleEndian.AppendUint32(commit, 1)
	commit = binary.LittleEndian.AppendUint32(commit, crc32.Checksum(commit, crcTable))
	batch := append(rec, commit...)
	v1 := append([]byte{'N', 'F', 'R', 'W', 1, 0, 0, 0}, batch...)
	v2 := append([]byte{'N', 'F', 'R', 'W', 2, 0, 0, 0, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0}, batch...)
	for _, tc := range []struct {
		name    string
		content []byte
		refused string // "" = opens as an empty log
	}{
		{"v1 header", v1, "version 1"},
		{"v1 header alone", v1[:8], "version 1"},
		{"v2 header", v2, "version 2"},
		{"future version", []byte{'N', 'F', 'R', 'W', 9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, "version 9"},
		{"alien magic", []byte("SQLite format 3\x00"), "bad header"},
		{"torn v3 header", []byte{'N', 'F', 'R', 'W', walVersion, 0, 0, 0, 0xEF, 0xBE}, ""},
		{"torn v3 magic", []byte{'N', 'F', 0, 0}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.wal")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := OpenWAL(path, nil)
			if tc.refused == "" {
				if err != nil {
					t.Fatalf("torn header refused: %v", err)
				}
				defer w.Close()
				if w.Size() != 0 || w.Stats().RecoveredBatches != 0 {
					t.Fatalf("torn header did not open as an empty log: size %d", w.Size())
				}
				return
			}
			if err == nil {
				w.Close()
				t.Fatal("opened")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.refused) ||
				(tc.refused != "bad header" && !strings.Contains(err.Error(), "only version 3")) {
				t.Fatalf("error %q does not name %q and the supported version", err, tc.refused)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, tc.content) {
				t.Fatal("refused sidecar was modified")
			}
		})
	}
}

// TestWALDeltaRecords: the second touch of a page in a checkpoint
// interval logs a delta against the retained committed image, not a
// full image, and recovery folds the delta back onto its base.
func TestWALDeltaRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pageWithRecord(t, "version-one")
	if err := appendBatch(w, []WALPage{{7, p}}); err != nil {
		t.Fatal(err)
	}
	p2 := *p
	if _, err := p2.Insert([]byte("version-two")); err != nil {
		t.Fatal(err)
	}
	p2.StampChecksum()
	if err := appendBatch(w, []WALPage{{7, &p2}}); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.FullPages != 1 || st.DeltaPages != 1 || st.PagesLogged != 2 {
		t.Fatalf("record mix = %+v, want 1 full + 1 delta", st)
	}
	if st.BytesLogged >= 2*walPageRecSize {
		t.Fatalf("BytesLogged = %d, delta saved nothing (full-image cost %d)",
			st.BytesLogged, 2*walPageRecSize)
	}
	if img, ok := w.Image(7); !ok || img != p2 {
		t.Fatal("retained image does not match the latest version")
	}
	w.Close()

	w2, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.RecoveredBatches != 2 {
		t.Fatalf("recovered %d batches, want 2", st.RecoveredBatches)
	}
	img, ok := w2.Image(7)
	if !ok {
		t.Fatal("image missing after recovery")
	}
	if img != p2 {
		t.Fatal("delta folded onto base does not reproduce the second version")
	}
	if w2.Clock() != 2 {
		t.Fatalf("clock recovered from commit records = %d, want 2", w2.Clock())
	}
}

// TestWALClockPersistsAcrossReset: a checkpoint retires the records,
// but the commit clock survives in the header (CRC-guarded) so
// reopening after a quiescent checkpoint does not rewind it, and the
// retired records behind the header are not replayed.
func TestWALClockPersistsAcrossReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clock.wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(w, []WALPage{{uint32(i + 1), pageWithRecord(t, "x")}}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Clock() != 3 {
		t.Fatalf("clock after 3 batches = %d", w.Clock())
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.CheckpointFsyncs != 1 {
		t.Fatalf("reset cost %d checkpoint fsyncs, want 1 (the header's)", st.CheckpointFsyncs)
	}
	w.Close()

	w2, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Clock() != 3 {
		t.Fatalf("clock after reset+reopen = %d, want 3", w2.Clock())
	}
	if w2.Size() != walHeaderSize {
		t.Fatalf("size after reset+reopen = %d, want %d", w2.Size(), walHeaderSize)
	}
	// the next batch continues the clock instead of restarting it
	if err := appendBatch(w2, []WALPage{{9, pageWithRecord(t, "y")}}); err != nil {
		t.Fatal(err)
	}
	if w2.Clock() != 4 {
		t.Fatalf("clock after post-reset append = %d, want 4", w2.Clock())
	}
	// after a reset the images are gone, so the append above must have
	// been a first-touch full image
	if st := w2.Stats(); st.FullPages != 1 || st.DeltaPages != 0 {
		t.Fatalf("post-reset record mix = %+v, want full image", st)
	}
}

// TestDiffPageApplyDeltaRoundTrip pins the delta codec: scattered
// byte-range edits round-trip through diffPage/applyDelta, and a
// whole-page rewrite refuses to encode (the caller logs a full image).
func TestDiffPageApplyDeltaRoundTrip(t *testing.T) {
	prev := pageWithRecord(t, "round-trip-base")
	cur := *prev
	if _, err := cur.Insert([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	cur[100] ^= 0xff
	cur[101] ^= 0x0f
	cur[2000] = 7
	cur[PageSize-9] ^= 0xaa
	cur.StampChecksum()
	payload, ok := diffPage(nil, prev, &cur)
	if !ok {
		t.Fatal("small edit did not encode as a delta")
	}
	if len(payload) >= walDeltaMax {
		t.Fatalf("delta payload %d bytes for a few edits", len(payload))
	}
	rebuilt := *prev
	if err := applyDelta(&rebuilt, payload); err != nil {
		t.Fatal(err)
	}
	if rebuilt != cur {
		t.Fatal("applyDelta(diffPage(prev,cur)) != cur")
	}
	// identical pages: a valid, nearly empty delta
	same, ok := diffPage(nil, prev, prev)
	if !ok || len(same) != 2 {
		t.Fatalf("identical-page delta = %d bytes, ok=%v", len(same), ok)
	}
	// whole-page rewrite: falls back to a full image
	var noise Page
	for i := range noise {
		noise[i] = byte(i*31 + 7)
	}
	if _, ok := diffPage(nil, prev, &noise); ok {
		t.Fatal("whole-page rewrite encoded as a delta")
	}
	// malformed payloads are refused, never applied out of bounds
	for _, bad := range [][]byte{
		{},
		{1},
		{1, 0},               // promises a range, provides none
		{1, 0, 255, 15, 255}, // range past the payload
	} {
		var img Page
		if err := applyDelta(&img, bad); err == nil {
			t.Fatalf("malformed payload %v accepted", bad)
		}
	}
}

// diffPageRef is the byte-at-a-time delta encoder diffPage replaced:
// the reference whose payload diffPage must write byte for byte.
func diffPageRef(prev, cur *Page) ([]byte, bool) {
	const gap = 16
	type span struct{ off, end int }
	var spans []span
	for i := 0; i < PageSize; {
		if prev[i] == cur[i] {
			i++
			continue
		}
		j := i + 1
		for j < PageSize && prev[j] != cur[j] {
			j++
		}
		if n := len(spans); n > 0 && i-spans[n-1].end < gap {
			spans[n-1].end = j
		} else {
			spans = append(spans, span{i, j})
		}
		i = j
	}
	size := 2
	for _, s := range spans {
		size += 4 + s.end - s.off
	}
	if size > walDeltaMax {
		return nil, false
	}
	payload := make([]byte, 0, size)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(spans)))
	for _, s := range spans {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(s.off))
		payload = binary.LittleEndian.AppendUint16(payload, uint16(s.end-s.off))
		payload = append(payload, cur[s.off:s.end]...)
	}
	return payload, true
}

// checkDiffPage holds diffPage(prev, cur) to diffPageRef, both alone
// and appended after a prefix, and checks that the payload rebuilds
// cur from prev.
func checkDiffPage(t *testing.T, prev, cur *Page) {
	t.Helper()
	want, wantOK := diffPageRef(prev, cur)
	got, ok := diffPage(nil, prev, cur)
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("diffPage = (%d bytes, %v), byte loop = (%d bytes, %v)", len(got), ok, len(want), wantOK)
	}
	prefix := []byte("prefix")
	got, ok = diffPage(prefix, prev, cur)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) || ok != wantOK {
		t.Fatal("diffPage after a prefix differs from the byte loop")
	}
	if !ok {
		return
	}
	img := *prev
	if err := applyDelta(&img, want); err != nil {
		t.Fatal(err)
	}
	if img != *cur {
		t.Fatal("applyDelta(prev, diffPage(prev, cur)) != cur")
	}
}

// diffEdgeOffsets are the word and block boundaries of diffPage's scan.
var diffEdgeOffsets = []int{0, 7, 8, 31, 32, 255, 256, 4088, 4095}

// diffBases returns the pages random edit sets start from: zeroed,
// formatted with one record, and random bytes.
func diffBases(rng *rand.Rand) []Page {
	bases := make([]Page, 12)
	for k := range bases {
		switch k % 3 {
		case 1:
			bases[k].Init()
			rec := make([]byte, 1+rng.Intn(200))
			rng.Read(rec)
			bases[k].Insert(rec)
		case 2:
			rng.Read(bases[k][:])
		}
	}
	return bases
}

// randomEdits sets cur to prev plus a random edit set: runs xored with
// a nonzero byte, runs of fresh random bytes (which leave some bytes
// equal inside the run), and strided edits whose gaps straddle the
// 16-byte merge distance. Some edits start on a block or word boundary,
// and some are long enough to pass walDeltaMax.
func randomEdits(rng *rand.Rand, prev, cur *Page) {
	*cur = *prev
	for k := rng.Intn(12); k > 0; k-- {
		off := rng.Intn(PageSize)
		if rng.Intn(4) == 0 {
			off = diffEdgeOffsets[rng.Intn(len(diffEdgeOffsets))]
		}
		n := 1 + rng.Intn(64)
		if rng.Intn(16) == 0 {
			n = 1 + rng.Intn(PageSize)
		}
		end := min(off+n, PageSize)
		switch rng.Intn(3) {
		case 0:
			x := byte(1 + rng.Intn(255))
			for i := off; i < end; i++ {
				cur[i] ^= x
			}
		case 1:
			rng.Read(cur[off:end])
		default:
			stride := 14 + rng.Intn(5) // 13 to 17 equal bytes between edits
			for i := off; i < end; i += stride {
				cur[i] ^= 0xff
			}
		}
	}
}

// TestDiffPageMatchesByteLoop: over 200 000 seeded random edit sets,
// the block-skipping diffPage writes the byte loop's payload and
// refuses exactly the deltas it refuses. Under -race, which has no
// goroutines to watch here, the first 10 000 sets run.
func TestDiffPageMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	bases := diffBases(rng)
	sets := 200_000
	if raceEnabled {
		sets = 10_000
	}
	var cur Page
	for n := 0; n < sets; n++ {
		prev := &bases[rng.Intn(len(bases))]
		randomEdits(rng, prev, &cur)
		checkDiffPage(t, prev, &cur)
	}
}

// diffEdit encodes one FuzzDiffPage edit: xor n bytes from off with x.
func diffEdit(off, n int, x byte) []byte {
	e := binary.LittleEndian.AppendUint16(nil, uint16(off))
	return append(binary.LittleEndian.AppendUint16(e, uint16(n)), x)
}

// FuzzDiffPage holds diffPage to the byte loop on pages built from a
// fill pattern and a list of 5-byte edits (off:u16 n:u16 xor:u8).
func FuzzDiffPage(f *testing.F) {
	var all []byte
	for _, off := range diffEdgeOffsets {
		f.Add([]byte{0}, diffEdit(off, 1, 0xff))
		f.Add([]byte("pattern"), diffEdit(off, 9, 0x5a))
		all = append(all, diffEdit(off, 1, 0x01)...)
	}
	f.Add([]byte{0}, all)
	for _, gap := range []int{15, 16, 17} {
		f.Add([]byte{0}, append(diffEdit(100, 4, 0xff), diffEdit(104+gap, 4, 0xff)...))
		f.Add([]byte("ab"), append(diffEdit(250, 6, 0x11), diffEdit(256+gap, 3, 0x22)...))
	}
	// one range whose payload is exactly walDeltaMax bytes, then one more
	f.Add([]byte{0}, diffEdit(1000, walDeltaMax-6, 0xff))
	f.Add([]byte{0}, diffEdit(1000, walDeltaMax-5, 0xff))
	f.Add([]byte{7, 9}, append(diffEdit(0, 1020, 0xff), diffEdit(1030, 1016, 0xff)...))
	f.Fuzz(func(t *testing.T, fill, edits []byte) {
		var prev Page
		for i := range prev {
			if len(fill) > 0 {
				prev[i] = fill[i%len(fill)]
			}
		}
		cur := prev
		for ; len(edits) >= 5; edits = edits[5:] {
			off := int(binary.LittleEndian.Uint16(edits)) % PageSize
			end := min(off+int(binary.LittleEndian.Uint16(edits[2:])), PageSize)
			for i := off; i < end; i++ {
				cur[i] ^= edits[4]
			}
		}
		checkDiffPage(t, &prev, &cur)
	})
}

// BenchmarkDiffPage prices the delta encoder per page: an entry added
// to a B+tree leaf, a record appended to a heap page, an unchanged
// page, and a page rewritten with noise (refused as a delta).
func BenchmarkDiffPage(b *testing.B) {
	_, _, bp := newWALPool(b, 16)
	txn := bp.Begin()
	ix, err := CreateBTree(bp, txn)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i += 2 {
		if err := ix.Put(txn, benchKey(i), benchRID(i)); err != nil {
			b.Fatal(err)
		}
	}
	leaf := func() Page { // the tree is one leaf below its meta page
		fr, err := bp.Get(metaOf(b, ix).root)
		if err != nil {
			b.Fatal(err)
		}
		defer bp.Unpin(fr, false)
		return *fr.Page()
	}
	leafPrev := leaf()
	if err := ix.Put(txn, benchKey(51), benchRID(51)); err != nil {
		b.Fatal(err)
	}
	leafCur := leaf()

	var heapPrev Page
	heapPrev.Init()
	for i := 0; i < 20; i++ {
		heapPrev.Insert(bytes.Repeat([]byte{byte(i)}, 90))
	}
	heapPrev.StampChecksum()
	heapSame, heapCur := heapPrev, heapPrev
	heapCur.Insert(bytes.Repeat([]byte{0xee}, 90))
	heapCur.StampChecksum()

	var noise Page
	rand.New(rand.NewSource(1)).Read(noise[:])

	for _, c := range []struct {
		name      string
		prev, cur *Page
	}{
		{"leaf_edit", &leafPrev, &leafCur},
		{"heap_append", &heapPrev, &heapCur},
		{"identical", &heapPrev, &heapSame},
		{"noise", &heapPrev, &noise},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, PageSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = diffPage(buf[:0], c.prev, c.cur)
			}
		})
	}
}

// BenchmarkAppendGroup prices one commit's log append: a batch of three
// delta pages (a heap record, a leaf entry and the meta page, each
// toggling between two versions) to a log on a MemFS, whose sync does
// nothing. Every 4096 appends the log is reset and the full images
// logged again outside the timer, as a checkpoint does, so the file
// stays small.
func BenchmarkAppendGroup(b *testing.B) {
	fs := NewMemFS()
	w, err := OpenWAL("db.wal", fs.Open)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var versions [2][3]Page
	for v := range versions {
		for k := range versions[v] {
			p := &versions[v][k]
			p.Init()
			for i := 0; i < 10+k; i++ {
				p.Insert(bytes.Repeat([]byte{byte(i + k)}, 60))
			}
			if v == 1 {
				p.Insert([]byte("one more entry"))
			}
			p.StampChecksum()
		}
	}
	batch := func(v int) []WALPage {
		return []WALPage{{2, &versions[v][0]}, {5, &versions[v][1]}, {9, &versions[v][2]}}
	}
	batches := [2][][]WALPage{{batch(0)}, {batch(1)}}
	checkpoint := func() {
		if err := w.Reset(); err != nil {
			b.Fatal(err)
		}
		if err := w.AppendGroup(batches[1], w.Clock()+1); err != nil {
			b.Fatal(err)
		}
	}
	checkpoint()
	before := w.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%4096 == 0 {
			b.StopTimer()
			checkpoint()
			b.StartTimer()
		}
		if err := w.AppendGroup(batches[i%2], w.Clock()+1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := w.Stats(); st.DeltaPages-before.DeltaPages != 3*b.N {
		b.Fatalf("%d delta records for %d batches of 3 pages", st.DeltaPages-before.DeltaPages, b.N)
	}
}

// appendBatch appends one transaction's pages as a group of one at the
// next clock value.
func appendBatch(w *WAL, pages []WALPage) error {
	return w.AppendGroup([][]WALPage{pages}, w.Clock()+1)
}
