package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/bits"
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
// survives the checkpoint that retires the records; commit records
// carry their group's LSN so a crash between a commit and the next
// checkpoint recovers it too.
//
// The file's size changes rarely (the recycled log). A checkpoint does
// not truncate: it rewrites the header's clock and rewinds the write
// offset, and the next generation of records overwrites the last one
// in place. Recovery tells the generations apart by that clock: every
// record of an older generation carries an LSN at or below it, so a
// commit record with lsn <= the header's clock ends the log, as a
// broken sequence does. Once the log holds walPreallocFrom bytes, an
// append that would pass the file's end also writes walPreallocBy
// zeros after its records, in the same write and under the same fsync,
// so the next commits' fsyncs find their blocks allocated and the
// inode's size unchanged. Recovery keeps a tail of only zeros as
// allocated space; any other tail (a torn group, a stale generation)
// is truncated.
//
// Record format (the "WAL diet"): the FIRST record for a page after a
// checkpoint is always a full image — it is the torn-page repair
// source, and redo can apply it with no prior state. Subsequent
// touches of the same page in the same checkpoint interval log a
// physiological DELTA: the byte ranges that changed against the
// previous committed image (`nranges:u16 {off:u16 len:u16 bytes}`),
// typically a few dozen bytes instead of a 4 KiB image. Recovery ends
// the log at a delta whose page no earlier record names, and folds the
// rest onto one image per page, checking each final image's embedded
// checksum, so a delta that lost its base (impossible in an intact log)
// or folds wrong is dropped exactly like a torn image.
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
// truncated, breaks the sequence, disagrees with its commit record's
// page count, or commits at or below the header's clock (scanLog); a
// tail cut inside a merged write simply recovers the prefix of whole
// batches, so crashes still land on transaction boundaries.
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

	// walBufKeep bounds the record buffer the WAL keeps between
	// appends: 16 full page records. A larger group's buffer is dropped.
	walBufKeep = 16 * walPageRecSize

	// An append that passes the file's end on a log already holding
	// walPreallocFrom bytes carries walPreallocBy zeros after its
	// records. A smaller log grows by its records alone, so a short log
	// (a crash image, a session of a few commits) is written and
	// recovered byte for byte as if nothing were preallocated. The
	// zeros are real writes: an unwritten extent (fallocate) still
	// costs a metadata commit on its first write.
	walPreallocFrom = 256 << 10
	walPreallocBy   = 1 << 20
)

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
	CheckpointFsyncs int // fsyncs spent resetting the log at checkpoints
	RecoveredBatches int // committed batches found at open
	RecoveredPages   int // page images in those batches (latest per batch)
	TornTailBytes    int // bytes past the last committed batch, discarded at open (a zero tail is kept)

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
	f        File  // nil until the file exists
	existed  bool  // the file was present on disk when the WAL was opened
	size     int64 // end of the last committed batch: where the next append writes
	alloc    int64 // the file's size; past size it holds zeros or a retired generation
	seq      uint64
	dbid     uint64           // database identity (0 = unknown / unpaired)
	clock    uint64           // highest commit LSN carried by the log
	hdrClock uint64           // clock value currently persisted in the header
	images   map[uint32]*Page // latest committed image per page since the last reset
	buf      []byte           // AppendGroup's record buffer, kept up to walBufKeep bytes
	stats    WALStats
	broken   error // a failed append's bytes could not be cut off: refuse appends
}

// OpenWAL attaches to the write-ahead log at path. An existing file is
// scanned: committed batches are retained for replay (CommittedImages)
// and the torn tail, if any, is truncated away; a tail of only zeros is
// kept as allocated space. A missing file is not created until the
// first AppendGroup.
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

// recover reads the file and recovers it in two passes over its bytes:
// scanLog finds the end of the last committed batch from the records'
// structure alone, and fold replays the records before that end onto
// one image per page. Everything past the end is truncated unless it is
// all zeros.
func (w *WAL) recover() error {
	size, err := w.f.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		// created but never written (crash between create and header)
		return nil
	}
	buf := make([]byte, size)
	if n, err := w.f.ReadAt(buf, 0); err != nil && !(err == io.EOF && int64(n) == size) {
		return err
	}
	s, err := scanLog(buf)
	if err != nil {
		return err
	}
	if s.torn {
		if err := w.f.Truncate(0); err != nil {
			return err
		}
		w.stats.TornTailBytes = int(size)
		return nil
	}
	w.fold(buf, s.end, false)
	for _, img := range w.images {
		if img.VerifyChecksum() != nil {
			// Rare: a whole, CRC-valid record folded a page wrong. As a
			// torn record would, the first such record ends the log
			// before its batch.
			s, _ = scanLog(buf[:w.fold(buf, s.end, true)])
			w.fold(buf, s.end, false)
			break
		}
	}
	w.dbid, w.hdrClock, w.clock, w.seq = s.dbid, s.hdrClock, s.clock, s.seq
	w.stats.RecoveredBatches, w.stats.RecoveredPages = s.batches, s.pages
	end := int64(s.end)
	w.size, w.alloc = end, size
	if allZero(buf[end:]) {
		return nil // space an extending append allocated
	}
	// A torn group or a retired generation must not outlive the crash:
	// a later append that ends where one of its commit records begins
	// would make that record follow and parse as committed.
	w.stats.TornTailBytes = int(size - end)
	if err := w.f.Truncate(end); err != nil {
		return err
	}
	w.alloc = end
	return w.f.Sync()
}

// logScan is what scanLog finds in a log's bytes.
type logScan struct {
	torn           bool   // the header is a torn creation: the log is empty
	dbid           uint64 // the header's database id
	hdrClock       uint64 // the header's clock, 0 when its CRC fails
	end            int    // end of the last committed batch (0 for an empty log)
	batches, pages int    // committed batches, and their distinct pages summed
	seq, clock     uint64 // the last batch's seq; the highest commit LSN, or hdrClock
}

// LogEnd returns where recovery ends the log whose bytes are log: the
// end of its last committed batch as the structural pass finds it (0
// for an empty log or a torn header), or the error OpenWAL refuses the
// log with. Recovery reads nothing past that end, so two logs whose
// bytes agree up to it recover identically.
func LogEnd(log []byte) (int64, error) {
	s, err := scanLog(log)
	return int64(s.end), err
}

// scanLog is recovery's first pass. It reads the header, then walks the
// records and ends the log at the first one that is cut short, fails
// its CRC or has an unknown tag, at a delta whose range list leaves the
// page or whose page no earlier record in the log names, and at a
// commit record that breaks the sequence, miscounts its batch's pages
// or commits at or below the header's clock. It reads no page image.
func scanLog(log []byte) (s logScan, err error) {
	size := len(log)
	if size == 0 {
		return s, nil
	}
	// The first 8 header bytes are fixed; the database id and the
	// persisted commit clock follow.
	prefix := []byte{walMagic[0], walMagic[1], walMagic[2], walMagic[3], walVersion, 0, 0, 0}
	switch {
	case size >= walHeaderSize && bytes.Equal(log[:8], prefix):
		s.dbid = binary.LittleEndian.Uint64(log[8:16])
		// The clock region is rewritten in place at checkpoints; a torn
		// rewrite can only garble these 12 bytes, which the CRC detects
		// — then the commit records (and the store's page-LSN probe)
		// still recover the clock.
		if crc32.Checksum(log[16:24], crcTable) == binary.LittleEndian.Uint32(log[24:28]) {
			s.hdrClock = binary.LittleEndian.Uint64(log[16:24])
		}
	case tornHeader(log[:min(size, walHeaderSize)], prefix):
		// A header that is a zero-padded prefix of the valid one (or the
		// full fixed prefix with a cut-short id/clock region) is a torn
		// creation: the log's first fsync never completed, so no batch
		// was ever promised durable — treat the log as empty.
		s.torn = true
		return s, nil
	case size >= 8 && string(log[:4]) == walMagic:
		// Another format version: its records must not be guessed at.
		return s, fmt.Errorf("%w: log format version %d, only version %d is supported", ErrCorrupt, log[4], walVersion)
	default:
		return s, fmt.Errorf("%w: log: bad header", ErrCorrupt)
	}
	s.end, s.clock = walHeaderSize, s.hdrClock
	// last maps each page a record names to the last batch that named
	// it, counting from 1; the batch in flight is s.batches+1, and
	// inFlight counts its distinct pages.
	last := make(map[uint32]int)
	inFlight := 0
	for off := s.end; off < size; {
		rec, n := log[off:], 0
		if rec[0] == walRecPage || rec[0] == walRecCommit ||
			rec[0] == walRecDelta && len(rec) >= walDeltaHdrSize && binary.LittleEndian.Uint32(rec[5:9]) <= PageSize {
			n = recordLen(rec)
		}
		if n == 0 || n > len(rec) || crc32.Checksum(rec[:n-4], crcTable) != binary.LittleEndian.Uint32(rec[n-4:n]) {
			return s, nil
		}
		if rec[0] == walRecCommit {
			seq := binary.LittleEndian.Uint64(rec[1:9])
			npages := binary.LittleEndian.Uint32(rec[9:13])
			lsn := binary.LittleEndian.Uint64(rec[13:21])
			// The first commit's sequence number is whatever the writer
			// had reached (checkpoints rewind the log but do not reset
			// the counter); after that it must advance by exactly one.
			// A commit at or below the header's clock was written before
			// the checkpoint that set it (a torn clock leaves hdrClock 0,
			// and AppendGroup refuses LSN 0).
			if (s.batches > 0 && seq != s.seq+1) || int(npages) != inFlight || lsn <= s.hdrClock {
				// a commit record that survived while part of its batch
				// tore, an out-of-order remnant, or a retired
				// generation's record: not a committed batch
				return s, nil
			}
			s.batches++
			s.pages += inFlight
			inFlight = 0
			s.seq, s.clock = seq, max(s.clock, lsn)
			s.end = off + n
		} else {
			pid := binary.LittleEndian.Uint32(rec[1:5])
			b, named := last[pid]
			if rec[0] == walRecDelta && (!named || applyDelta(nil, rec[walDeltaHdrSize:n-4]) != nil) {
				return s, nil // a delta with no base, or ranges off the page
			}
			if b != s.batches+1 {
				last[pid] = s.batches + 1
				inFlight++
			}
		}
		off += n
	}
	return s, nil
}

// recordLen returns the length of the record at the start of b, whose
// tag and, for a delta, size field are there.
func recordLen(b []byte) int {
	switch b[0] {
	case walRecPage:
		return walPageRecSize
	case walRecCommit:
		return walCommitRecSize
	}
	return walDeltaHdrSize + int(binary.LittleEndian.Uint32(b[5:9])) + 4
}

// fold is recovery's second pass. It replays the page records before
// end, which scanLog accepted, in log order onto one image per page, in
// place, and returns end. With check it also verifies the page's
// checksum after every record, and returns the start of the batch
// holding the first record whose fold fails.
func (w *WAL) fold(log []byte, end int, check bool) int {
	clear(w.images)
	batch := walHeaderSize
	for off := walHeaderSize; off < end; {
		rec := log[off : off+recordLen(log[off:])]
		off += len(rec)
		if rec[0] == walRecCommit {
			batch = off
			continue
		}
		pid := binary.LittleEndian.Uint32(rec[1:5])
		img := w.images[pid]
		if img == nil {
			img = new(Page)
			w.images[pid] = img
		}
		if rec[0] == walRecPage {
			copy(img[:], rec[5:5+PageSize])
		} else {
			applyDelta(img, rec[walDeltaHdrSize:len(rec)-4]) // scanLog checked its ranges
		}
		if check && img.VerifyChecksum() != nil {
			return batch
		}
	}
	return end
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	var zero [PageSize]byte
	for len(b) > 0 {
		n := min(len(b), len(zero))
		if !bytes.Equal(b[:n], zero[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
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

// diffPage appends to dst a physiological delta payload transforming
// prev into cur — `nranges:u16 {off:u16 len:u16 bytes}` — or returns
// dst unchanged and ok=false when the payload would pass walDeltaMax
// (then the caller logs the full image). A range runs from a changed
// byte to the last changed byte before 16 or more equal ones, so
// nearby edits share one range header. The scan skips equal 256- and
// 32-byte blocks and then 8-byte words to the next changed byte, and
// follows a range a word at a time, so a page costs about its changed
// bytes plus PageSize/256 block compares. The payload is the one a
// byte-at-a-time scan with the same merge rule writes
// (TestDiffPageMatchesByteLoop and FuzzDiffPage hold it there).
func diffPage(dst []byte, prev, cur *Page) ([]byte, bool) {
	const gap = 16 // merge ranges separated by fewer unchanged bytes
	base := len(dst)
	dst = append(dst, 0, 0) // nranges, set once the scan is done
	n := 0
	for i := nextDiff(prev, cur, 0); i < PageSize; n++ {
		// limit is the last end this range may reach within walDeltaMax.
		limit := i + walDeltaMax - (len(dst) - base) - 4
		// The range so far is [i, end); the bytes in [end, p) are equal
		// and fewer than gap, so a change before end+gap extends it.
		end, p, next := i+1, i+1, PageSize
		for end <= limit && p < PageSize {
			x := xorWord(prev, cur, p)
			if x == 0 {
				if p += 8; p-end >= gap {
					next = nextDiff(prev, cur, min(p, PageSize))
					break
				}
				continue
			}
			if q := p + bits.TrailingZeros64(x)/8; q-end >= gap {
				next = q
				break
			}
			end = p + 8 - bits.LeadingZeros64(x)/8
			p += 8
		}
		if end > limit {
			return dst[:base], false
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(i))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(end-i))
		dst = append(dst, cur[i:end]...)
		i = next
	}
	binary.LittleEndian.PutUint16(dst[base:], uint16(n))
	return dst, true
}

// xorWord returns the xor of the 8 bytes of a and b at offset p, read
// little-endian; bytes past the end of the page read as equal.
func xorWord(a, b *Page, p int) uint64 {
	if p+8 <= PageSize {
		return binary.LittleEndian.Uint64(a[p:]) ^ binary.LittleEndian.Uint64(b[p:])
	}
	const last = PageSize - 8
	return (binary.LittleEndian.Uint64(a[last:]) ^ binary.LittleEndian.Uint64(b[last:])) >> (8 * (p - last))
}

// nextDiff returns the first offset at or after i where a and b
// differ, or PageSize when none does.
func nextDiff(a, b *Page, i int) int {
	for i+256 <= PageSize && bytes.Equal(a[i:i+256], b[i:i+256]) {
		i += 256
	}
	for i+32 <= PageSize && bytes.Equal(a[i:i+32], b[i:i+32]) {
		i += 32
	}
	for ; i < PageSize; i += 8 {
		if x := xorWord(a, b, i); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	return PageSize
}

// applyDelta folds a delta payload onto img in place, bounds-checking
// every range against the page and the payload. With img nil it only
// checks.
func applyDelta(img *Page, payload []byte) error {
	if len(payload) < 2 {
		return fmt.Errorf("%w: log: delta payload truncated", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(payload[0:2]))
	off := 2
	for k := 0; k < n; k++ {
		if off+4 > len(payload) {
			return fmt.Errorf("%w: log: delta range header truncated", ErrCorrupt)
		}
		o := int(binary.LittleEndian.Uint16(payload[off : off+2]))
		l := int(binary.LittleEndian.Uint16(payload[off+2 : off+4]))
		off += 4
		if o+l > PageSize || off+l > len(payload) {
			return fmt.Errorf("%w: log: delta range out of bounds", ErrCorrupt)
		}
		if img != nil {
			copy(img[o:o+l], payload[off:off+l])
		}
		off += l
	}
	if off != len(payload) {
		return fmt.Errorf("%w: log: delta payload has trailing bytes", ErrCorrupt)
	}
	return nil
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
// against the retained committed image. An append past the file's end
// on a log of walPreallocFrom bytes or more writes walPreallocBy zeros
// after its records, in the same write. lsn must be above the clock the
// last checkpoint wrote into the header. After AppendGroup returns
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
	if lsn <= w.hdrClock {
		// recovery would take these batches for a retired generation's
		return fmt.Errorf("storage: commit LSN %d is not above the log's checkpointed clock %d", lsn, w.hdrClock)
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
		w.alloc = max(w.alloc, w.size)
	}
	// Each record is appended straight into w.buf and its CRC taken over
	// the buffer's tail, so a commit allocates nothing per record.
	buf := w.buf[:0]
	if need := n*walPageRecSize + len(batches)*walCommitRecSize; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	seq := w.seq
	nBatches, nFull, nDelta := 0, 0, 0
	for _, pages := range batches {
		if len(pages) == 0 {
			continue
		}
		for _, p := range pages {
			rec := len(buf)
			if prev, ok := w.images[p.PID]; ok {
				buf = append(buf, walRecDelta)
				buf = binary.LittleEndian.AppendUint32(buf, p.PID)
				buf = binary.LittleEndian.AppendUint32(buf, 0) // size, set below
				if out, ok := diffPage(buf, prev, p.Img); ok {
					buf = out
					binary.LittleEndian.PutUint32(buf[rec+5:], uint32(len(buf)-rec-walDeltaHdrSize))
					buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[rec:], crcTable))
					nDelta++
					continue
				}
				buf = buf[:rec]
			}
			buf = append(buf, walRecPage)
			buf = binary.LittleEndian.AppendUint32(buf, p.PID)
			buf = append(buf, p.Img[:]...)
			buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[rec:], crcTable))
			nFull++
		}
		seq++
		nBatches++
		rec := len(buf)
		buf = append(buf, walRecCommit)
		buf = binary.LittleEndian.AppendUint64(buf, seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pages)))
		buf = binary.LittleEndian.AppendUint64(buf, lsn)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[rec:], crcTable))
	}
	if cap(buf) <= walBufKeep {
		w.buf = buf
	}
	logged := len(buf)
	if w.size+int64(logged) > w.alloc && w.size >= walPreallocFrom {
		buf = append(buf, make([]byte, walPreallocBy)...)
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return w.undoAppend(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.undoAppend(err)
	}
	w.stats.Fsyncs++
	w.alloc = max(w.alloc, w.size+int64(len(buf)))
	w.size += int64(logged)
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
	w.stats.BytesLogged += logged
	// Only now, with the group durable, may the images move: a failed
	// append must leave the next one diffing against the last committed
	// bytes. A page already retained is overwritten in place.
	for _, pages := range batches {
		for _, p := range pages {
			if img := w.images[p.PID]; img != nil {
				*img = *p.Img
			} else {
				img := *p.Img
				w.images[p.PID] = &img
			}
		}
	}
	return nil
}

// undoAppend cuts a failed append's bytes off the log and returns err.
// Left in place, they would outlive the failure: the group's sequence
// numbers are reused, so a later batch exactly as long as the failed
// group's first would be followed by the failed group's second, which
// then parses as the next batch and is replayed although its commit
// failed. The cut also gives back the file's space past the log (zeros
// or a retired generation); the next append that needs it extends the
// file again. If the cut fails too, every later append fails with that
// error until the log is reopened.
func (w *WAL) undoAppend(err error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = fmt.Errorf("storage: log holds a failed append (%v) and cannot cut it off: %w", err, terr)
	} else {
		w.alloc = w.size
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

// Reset retires the log's records after a checkpoint (the data file is
// synced, so the logged batches are no longer needed) and drops the
// retained images — the next touch of any page logs a full image
// again. It rewrites the header with the current clock, fsyncs it, and
// rewinds the write offset to just past the header without truncating:
// the next generation overwrites the retired one in place, and the
// file keeps its blocks. Every retired record's LSN is at or below the
// clock now in the header, so recovery stops at the first of them. A
// crash before the fsync leaves the old clock (or a torn one, which
// recovery ignores) with the old, idempotently replayable records.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.images = make(map[uint32]*Page)
	if w.f == nil || w.size <= walHeaderSize {
		return nil
	}
	if _, err := w.f.WriteAt(w.header(), 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.stats.CheckpointFsyncs++
	w.size = walHeaderSize
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
