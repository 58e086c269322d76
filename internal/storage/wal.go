package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"sync"
	"time"
)

// This file implements the write-ahead log behind the paged file's
// crash recovery (docs/recovery.md). The WAL is a sidecar file holding
// redo records grouped into commit batches:
//
//	header  "NFRW" version(1) reserved(3) dbid:u64 clock:u64 clockCRC:u32   28 bytes
//	'P' pid:u32 image:PageSize crc32c:u32                     full page image
//	'D' pid:u32 size:u32 payload[size] crc32c:u32             page delta
//	'C' seq:u64 npages:u32 lsn:u64 crc32c:u32                 commit
//
// dbid is the owning database's random identity, matched against the
// id stored in the data file's catalog header so a mispaired or
// shuffled data/sidecar pair is refused instead of replayed. clock is
// the highest commit LSN the log has carried, persisted at checkpoints
// (CRC-guarded against torn header rewrites) so the MVCC commit clock
// survives log truncation; commit records carry their group's LSN so a
// crash between a commit and the next checkpoint recovers it too.
//
// Record format (the "WAL diet"): the FIRST record for a page after a
// checkpoint is always a full image — it is the torn-page repair
// source, and redo can apply it with no prior state. Subsequent
// touches of the same page in the same checkpoint interval log a
// physiological DELTA: the byte ranges that changed against the
// previous committed image (`nranges:u16 {off:u16 len:u16 bytes}`),
// typically a few dozen bytes instead of a 4 KiB image. Recovery folds
// deltas onto the retained base image and verifies the reconstructed
// page's embedded checksum, so a delta that lost its base (impossible
// in an intact log) or tore is detected exactly like a torn image.
// Because every page image carries its commit LSN in the page header
// (page.go), redo is idempotent by the LSN rule — replay a
// reconstructed image iff it is newer than the on-disk page — rather
// than by overwrite alone.
//
// Ordering rule (the write-ahead invariant): every dirty page's record
// is appended and the batch's commit record fsync'd BEFORE any of
// those pages may be written to the data file. One batch = one
// transaction, but one WRITE and one fsync may cover several batches:
// AppendGroup concatenates the batches of concurrently committing
// transactions (consecutive seqs) into a single append — merged group
// commit, amortizing the fsync below one per transaction under load.
// Recovery replays the latest committed image of every page and
// discards a torn tail at the first record that fails its CRC, is
// truncated, breaks the sequence, or disagrees with its commit
// record's page count; a tail cut inside a merged write simply
// recovers the prefix of whole batches, so crashes still land on
// transaction boundaries.
const (
	walMagic      = "NFRW"
	walVersion    = 3
	walHeaderSize = 28 // magic(4) version(1) reserved(3) dbid(8) clock(8) clockCRC(4)

	walRecPage   = 'P'
	walRecDelta  = 'D'
	walRecCommit = 'C'

	walPageRecSize   = 1 + 4 + PageSize + 4
	walCommitRecSize = 1 + 8 + 4 + 8 + 4 // tag seq npages lsn crc
	walDeltaHdrSize  = 1 + 4 + 4         // tag pid size; payload and crc follow

	// walDeltaMax caps a delta payload: past half a page the full image
	// is barely bigger and needs no base to replay.
	walDeltaMax = PageSize / 2
)

// ErrCorruptWAL wraps WAL open failures that are not a plain torn tail
// (bad magic or an unsupported version).
var ErrCorruptWAL = errors.New("storage: corrupt WAL")

// WALStats counts WAL activity. Batches/PagesLogged/Fsyncs cover this
// process's appends; Recovered* describe what open-time redo found.
// Batches/Fsyncs is the group-commit merge factor (1.0 = no merging);
// MaxGroupBatches is the largest number of transactions one fsync
// covered. BytesLogged is the total record bytes appended (page
// images, deltas, and commit records); PagesLogged * walPageRecSize is
// the bytes a full-image-only log would have spent on the same pages,
// so the two together measure the delta format's savings.
type WALStats struct {
	Batches          int // committed batches appended (one per transaction)
	PagesLogged      int // page records appended (full images + deltas)
	FullPages        int // full-image records among PagesLogged
	DeltaPages       int // delta records among PagesLogged
	BytesLogged      int // total record bytes appended
	Fsyncs           int // commit fsyncs (one per append group)
	MaxGroupBatches  int // most batches merged into a single fsync
	CheckpointFsyncs int // fsyncs spent truncating the log at checkpoints
	RecoveredBatches int // committed batches found at open
	RecoveredPages   int // page images in those batches (latest per batch)
	TornTailBytes    int // bytes past the last committed batch, discarded at open

	RedoElapsed time.Duration // time open spent scanning the log and folding deltas
}

// WALPage names one page image for a batch append.
type WALPage struct {
	PID uint32
	Img *Page
}

// WAL is a per-database write-ahead log. The file is created lazily on
// the first append, so opening a database read-only leaves no sidecar
// behind. All methods are safe for concurrent use.
type WAL struct {
	mu       sync.Mutex
	path     string
	open     OpenFileFunc
	f        File // nil until the file exists
	existed  bool // the file was present on disk when the WAL was opened
	size     int64
	seq      uint64
	dbid     uint64           // database identity (0 = unknown / unpaired)
	clock    uint64           // highest commit LSN carried by the log
	hdrClock uint64           // clock value currently persisted in the header
	images   map[uint32]*Page // latest committed image per page since the last reset
	stats    WALStats
	broken   error // a failed append's bytes could not be cut off: refuse appends
}

// OpenWAL attaches to the write-ahead log at path. An existing file is
// scanned: committed batches are retained for replay (CommittedImages)
// and the torn tail, if any, is truncated away. A missing file is not
// created until the first AppendBatch.
func OpenWAL(path string, open OpenFileFunc) (*WAL, error) {
	if open == nil {
		open = OpenOSFile
	}
	w := &WAL{path: path, open: open, images: make(map[uint32]*Page)}
	f, err := open(path, false)
	if errors.Is(err, fs.ErrNotExist) {
		return w, nil
	}
	if err != nil {
		return nil, err
	}
	w.f = f
	w.existed = true
	start := time.Now()
	if err := w.recover(); err != nil {
		f.Close()
		return nil, err
	}
	w.stats.RedoElapsed = time.Since(start)
	return w, nil
}

// Existed reports whether the log file was already on disk when the
// WAL was opened — the marker of a crashed (or still-open) database,
// since a clean close removes the sidecar. Lazy creation by a later
// append does not change it.
func (w *WAL) Existed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.existed
}

// recover scans the file, collecting the latest committed image per
// page (folding delta records onto their bases), and truncates
// everything past the last committed batch.
func (w *WAL) recover() error {
	size, err := w.f.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		// created but never written (crash between create and header)
		w.size = 0
		return nil
	}
	buf := make([]byte, size)
	if n, err := w.f.ReadAt(buf, 0); err != nil && !(err == io.EOF && int64(n) == size) {
		return err
	}
	// The first 8 header bytes are fixed; the database id and the
	// persisted commit clock follow.
	prefix := []byte{walMagic[0], walMagic[1], walMagic[2], walMagic[3], walVersion, 0, 0, 0}
	switch {
	case size >= walHeaderSize && bytes.Equal(buf[:8], prefix):
		w.dbid = binary.LittleEndian.Uint64(buf[8:16])
		// The clock region is rewritten in place at checkpoints; a torn
		// rewrite can only garble these 12 bytes, which the CRC detects
		// — then the commit records (and the store's page-LSN probe)
		// still recover the clock.
		if crc32.Checksum(buf[16:24], crcTable) == binary.LittleEndian.Uint32(buf[24:28]) {
			w.clock = binary.LittleEndian.Uint64(buf[16:24])
			w.hdrClock = w.clock
		}
	case tornHeader(buf[:min(size, walHeaderSize)], prefix):
		// A header that is a zero-padded prefix of the valid one (or the
		// full fixed prefix with a cut-short id/clock region) is a torn
		// creation: the log's first fsync never completed, so no batch
		// was ever promised durable — treat the log as empty.
		if err := w.f.Truncate(0); err != nil {
			return err
		}
		w.stats.TornTailBytes = int(size)
		w.size = 0
		return nil
	case size >= 8 && string(buf[:4]) == walMagic:
		// Another format version: its records must not be guessed at.
		return fmt.Errorf("%w: log format version %d, only version %d is supported", ErrCorruptWAL, buf[4], walVersion)
	default:
		return fmt.Errorf("%w: bad header", ErrCorruptWAL)
	}
	end := int64(walHeaderSize)
	off := end
	// pending holds the batch in flight; a torn batch is dropped with it.
	// A page's first record in a batch takes a buffer from free (superseded
	// images) or a new one, never a committed image; later ones fold in place.
	pending := make(map[uint32]*Page)
	var free []*Page
	buffer := func(pid uint32) (img *Page, first bool) {
		if img = pending[pid]; img != nil {
			return img, false
		}
		if n := len(free); n > 0 {
			img, free = free[n-1], free[:n-1]
		} else {
			img = new(Page)
		}
		pending[pid] = img
		return img, true
	}
	sawCommit := false
scan:
	for off < size {
		switch buf[off] {
		case walRecPage:
			if off+walPageRecSize > size {
				break scan // torn tail
			}
			rec := buf[off : off+walPageRecSize]
			if crc32.Checksum(rec[:walPageRecSize-4], crcTable) !=
				binary.LittleEndian.Uint32(rec[walPageRecSize-4:]) {
				break scan
			}
			img, _ := buffer(binary.LittleEndian.Uint32(rec[1:5]))
			copy(img[:], rec[5:5+PageSize])
			off += walPageRecSize
		case walRecDelta:
			if off+walDeltaHdrSize > size {
				break scan
			}
			pid := binary.LittleEndian.Uint32(buf[off+1 : off+5])
			sz := int64(binary.LittleEndian.Uint32(buf[off+5 : off+9]))
			if sz > PageSize {
				break scan // garbage length, not a plausible delta
			}
			recEnd := off + walDeltaHdrSize + sz + 4
			if recEnd > size {
				break scan
			}
			rec := buf[off:recEnd]
			if crc32.Checksum(rec[:len(rec)-4], crcTable) !=
				binary.LittleEndian.Uint32(rec[len(rec)-4:]) {
				break scan
			}
			// Fold the delta onto the newest image of the page: the one
			// already pending in this batch, else the last committed one.
			// A delta with no base, a malformed range list, or a
			// reconstruction whose embedded page checksum fails is
			// treated exactly like a torn record.
			img, first := buffer(pid)
			if first {
				base := w.images[pid]
				if base == nil {
					break scan
				}
				*img = *base
			}
			if applyDelta(img, rec[walDeltaHdrSize:len(rec)-4]) != nil || img.VerifyChecksum() != nil {
				break scan
			}
			off = recEnd
		case walRecCommit:
			if off+walCommitRecSize > size {
				break scan
			}
			rec := buf[off : off+walCommitRecSize]
			if crc32.Checksum(rec[:walCommitRecSize-4], crcTable) !=
				binary.LittleEndian.Uint32(rec[walCommitRecSize-4:]) {
				break scan
			}
			seq := binary.LittleEndian.Uint64(rec[1:9])
			n := binary.LittleEndian.Uint32(rec[9:13])
			// The first commit's sequence number is whatever the writer
			// had reached (checkpoints truncate the log but do not reset
			// the counter); after that it must advance by exactly one.
			if (sawCommit && seq != w.seq+1) || int(n) != len(pending) {
				// a commit record that survived while part of its batch
				// tore, or an out-of-order remnant: not a committed batch
				break scan
			}
			if lsn := binary.LittleEndian.Uint64(rec[13:21]); lsn > w.clock {
				w.clock = lsn
			}
			sawCommit = true
			for pid, img := range pending {
				if old := w.images[pid]; old != nil {
					free = append(free, old)
				}
				w.images[pid] = img
			}
			w.stats.RecoveredBatches++
			w.stats.RecoveredPages += len(pending)
			clear(pending)
			w.seq = seq
			off += walCommitRecSize
			end = off
		default:
			break scan
		}
	}
	w.size = end
	w.stats.TornTailBytes = int(size - end)
	if size > end {
		if err := w.f.Truncate(end); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// tornHeader reports whether hdr is a shape only a crash during the
// header's first, never-fsync'd write can leave: a zero-padded proper
// prefix of the fixed 8 header bytes, or the full fixed prefix with
// the trailing region (id, clock) cut short of walHeaderSize.
func tornHeader(hdr, prefix []byte) bool {
	i := 0
	for i < len(hdr) && i < len(prefix) && hdr[i] == prefix[i] {
		i++
	}
	if i == len(prefix) {
		// a complete header is handled as valid by the caller
		return len(hdr) < walHeaderSize
	}
	for _, b := range hdr[i:] {
		if b != 0 {
			return false
		}
	}
	return true
}

// diffPage returns a physiological delta payload transforming prev
// into cur — `nranges:u16 {off:u16 len:u16 bytes}` with nearby ranges
// merged — or ok=false when the delta would not be materially smaller
// than a full image (then the caller logs the image).
func diffPage(prev, cur *Page) ([]byte, bool) {
	const gap = 16 // merge ranges separated by fewer unchanged bytes
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

// applyDelta folds a delta payload onto img in place, bounds-checking
// every range against the page and the payload.
func applyDelta(img *Page, payload []byte) error {
	if len(payload) < 2 {
		return fmt.Errorf("%w: delta payload truncated", ErrCorruptWAL)
	}
	n := int(binary.LittleEndian.Uint16(payload[0:2]))
	off := 2
	for k := 0; k < n; k++ {
		if off+4 > len(payload) {
			return fmt.Errorf("%w: delta range header truncated", ErrCorruptWAL)
		}
		o := int(binary.LittleEndian.Uint16(payload[off : off+2]))
		l := int(binary.LittleEndian.Uint16(payload[off+2 : off+4]))
		off += 4
		if o+l > PageSize || off+l > len(payload) {
			return fmt.Errorf("%w: delta range out of bounds", ErrCorruptWAL)
		}
		copy(img[o:o+l], payload[off:off+l])
		off += l
	}
	if off != len(payload) {
		return fmt.Errorf("%w: delta payload has trailing bytes", ErrCorruptWAL)
	}
	return nil
}

// AppendBatch appends one commit batch — every page's record followed
// by a commit record — and fsyncs once, assigning the next clock value
// as the batch's commit LSN. After AppendBatch returns, the batch is
// durable and its pages may be written to the data file.
func (w *WAL) AppendBatch(pages []WALPage) error {
	return w.AppendGroup([][]WALPage{pages}, w.Clock()+1)
}

// AppendGroup appends several transactions' commit batches — each its
// own run of page records followed by a commit record with the next
// sequence number — as ONE file write and ONE fsync. This is the
// merged group commit: the batches become durable together, and
// because every batch keeps its own commit record, recovery of a tail
// torn inside the group still lands on a whole-batch (transaction)
// boundary. lsn is the group's commit LSN (all batches of one group
// publish under one clock tick); it is recorded in each commit record
// so recovery re-seeds the clock. The first record for a page since
// the last checkpoint is a full image; later touches log deltas
// against the retained committed image. After AppendGroup returns
// every batch is durable and its pages may be written to the data
// file.
func (w *WAL) AppendGroup(batches [][]WALPage, lsn uint64) error {
	n := 0
	for _, pages := range batches {
		n += len(pages)
	}
	if n == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.f == nil {
		f, err := w.open(w.path, true)
		if err != nil {
			return err
		}
		w.f = f
	}
	if w.size == 0 {
		hdr := w.header()
		if _, err := w.f.WriteAt(hdr, 0); err != nil {
			return w.undoAppend(err)
		}
		w.size = int64(len(hdr))
	}
	buf := make([]byte, 0, n*walPageRecSize+len(batches)*walCommitRecSize)
	seq := w.seq
	nBatches, nFull, nDelta := 0, 0, 0
	for _, pages := range batches {
		if len(pages) == 0 {
			continue
		}
		for _, p := range pages {
			if prev, ok := w.images[p.PID]; ok {
				if payload, ok := diffPage(prev, p.Img); ok {
					rec := make([]byte, 0, walDeltaHdrSize+len(payload)+4)
					rec = append(rec, walRecDelta)
					rec = binary.LittleEndian.AppendUint32(rec, p.PID)
					rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
					rec = append(rec, payload...)
					rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, crcTable))
					buf = append(buf, rec...)
					nDelta++
					continue
				}
			}
			rec := make([]byte, 0, walPageRecSize)
			rec = append(rec, walRecPage)
			rec = binary.LittleEndian.AppendUint32(rec, p.PID)
			rec = append(rec, p.Img[:]...)
			rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, crcTable))
			buf = append(buf, rec...)
			nFull++
		}
		seq++
		nBatches++
		commit := make([]byte, 0, walCommitRecSize)
		commit = append(commit, walRecCommit)
		commit = binary.LittleEndian.AppendUint64(commit, seq)
		commit = binary.LittleEndian.AppendUint32(commit, uint32(len(pages)))
		commit = binary.LittleEndian.AppendUint64(commit, lsn)
		commit = binary.LittleEndian.AppendUint32(commit, crc32.Checksum(commit, crcTable))
		buf = append(buf, commit...)
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return w.undoAppend(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.undoAppend(err)
	}
	w.stats.Fsyncs++
	w.size += int64(len(buf))
	w.seq = seq
	if lsn > w.clock {
		w.clock = lsn
	}
	w.stats.Batches += nBatches
	if nBatches > w.stats.MaxGroupBatches {
		w.stats.MaxGroupBatches = nBatches
	}
	w.stats.PagesLogged += n
	w.stats.FullPages += nFull
	w.stats.DeltaPages += nDelta
	w.stats.BytesLogged += len(buf)
	for _, pages := range batches {
		for _, p := range pages {
			img := *p.Img
			w.images[p.PID] = &img
		}
	}
	return nil
}

// undoAppend cuts a failed append's bytes off the log and returns err.
// Left in place, they would outlive the failure: the group's sequence
// numbers are reused, so a later batch exactly as long as the failed
// group's first would be followed by the failed group's second, which
// then parses as the next batch and is replayed although its commit
// failed. If the cut fails too, every later append fails with that
// error until the log is reopened.
func (w *WAL) undoAppend(err error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = fmt.Errorf("storage: log holds a failed append (%v) and cannot cut it off: %w", err, terr)
	}
	return err
}

// header builds the on-disk header with the current dbid and clock.
func (w *WAL) header() []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	hdr[4] = walVersion
	binary.LittleEndian.PutUint64(hdr[8:16], w.dbid)
	binary.LittleEndian.PutUint64(hdr[16:24], w.clock)
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(hdr[16:24], crcTable))
	w.hdrClock = w.clock
	return hdr
}

// SetDBID records the owning database's identity; it is stamped into
// the header when the log file is (re)created. The store sets it after
// reading or initializing the data file's catalog header.
func (w *WAL) SetDBID(id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dbid = id
}

// DBID returns the database id read from an existing log's header (or
// previously set); 0 means unknown — no log on disk and no caller has
// set one.
func (w *WAL) DBID() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dbid
}

// Clock returns the highest commit LSN the log has carried — from the
// persisted header value, recovered commit records, and this process's
// appends, whichever is largest. The store seeds the pool's commit
// clock from it (together with the durable page LSNs) so snapshot LSNs
// stay meaningful across restarts.
func (w *WAL) Clock() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clock
}

// SetClock raises the log's clock to at least c. The store calls it
// with the recovered durable LSN before the first append so a lazily
// created log (and the next checkpoint's header rewrite) starts from
// the right value.
func (w *WAL) SetClock(c uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c > w.clock {
		w.clock = c
	}
}

// CommittedImages returns the latest committed image of every page
// logged since the last reset, for open-time redo. The returned map is
// the WAL's own; treat it as read-only and apply before Reset.
func (w *WAL) CommittedImages() map[uint32]*Page {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.images
}

// Image returns a copy of the latest committed image of pid, if the
// page was logged since the last reset. The buffer pool uses it to
// repair a page whose data-file copy fails its checksum. Delta records
// were already folded onto their base, so the image is always whole.
func (w *WAL) Image(pid uint32) (Page, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	img, ok := w.images[pid]
	if !ok {
		return Page{}, false
	}
	return *img, true
}

// Size returns the committed end offset of the log (0 when the file was
// never created).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns a snapshot of the WAL counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Reset truncates the log back to its header after a checkpoint (the
// data file is synced, so the logged batches are no longer needed) and
// drops the retained images — the next touch of any page logs a full
// image again. The header is first rewritten with the current clock
// and fsync'd BEFORE the truncate, so the clock can never go backwards:
// a crash between the two leaves the new clock with the old
// (idempotently replayable) records still behind it.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.images = make(map[uint32]*Page)
	if w.f == nil {
		return nil
	}
	if w.size <= walHeaderSize {
		return nil
	}
	if w.clock != w.hdrClock {
		if _, err := w.f.WriteAt(w.header(), 0); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.stats.CheckpointFsyncs++
	}
	if err := w.f.Truncate(walHeaderSize); err != nil {
		return err
	}
	w.size = walHeaderSize
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.stats.CheckpointFsyncs++
	return nil
}

// Close closes the log file (without resetting it). It reports whether
// the file exists on disk so the caller can remove the sidecar after a
// clean shutdown.
func (w *WAL) Close() (exists bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return false, nil
	}
	err = w.f.Close()
	w.f = nil
	return true, err
}
