// Package storage implements the paper's "realization view": a
// file-backed storage engine that stores NFR tuples physically, so the
// tuple-count reduction of nesting translates into fewer, smaller
// records on disk. It provides slotted pages, a pager, an LRU buffer
// pool, heap files of variable-length records, and a hash index.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// Page layout:
//
//	[0:2)   numSlots  uint16
//	[2:4)   freeStart uint16 — first free byte after record data
//	[4:8)   next      uint32 — next page id in a heap chain (0 = none)
//	[8:12)  checksum  uint32 — CRC32-C of the page with this field zeroed
//	[12:20) pageLSN   uint64 — commit LSN of the page's current image
//	records grow up from byte 20; the slot directory grows down from
//	PageSize, 4 bytes per slot: offset uint16, length uint16.
//	A slot with offset 0 is a tombstone (records never start at 0).
//
// The checksum is stamped by the pager on every write (and by the
// buffer pool before a page image enters the WAL) and verified by the
// buffer pool on every read from disk, so a torn or bit-rotted page is
// detected before any slot arithmetic touches it. See docs/recovery.md.
//
// The pageLSN is stamped at group-commit publish (before the checksum,
// so the checksum covers it): it is the value of the pool's commit
// clock under which this image became durable. Recovery uses it to
// gate redo — a logged image is replayed only onto a page whose
// on-disk LSN is older — which makes replay idempotent even for delta
// records, and it survives clean closes so the MVCC commit clock is
// seeded from durable state instead of resetting to zero (see
// docs/recovery.md and docs/mvcc.md).
const (
	pageHeaderSize = 20
	checksumOff    = 8
	lsnOff         = 12
	slotSize       = 4
)

// MaxRecord is the largest record a page can hold: an empty page less
// its header and one slot.
const MaxRecord = PageSize - pageHeaderSize - slotSize

// ErrPageFull is returned when a record does not fit in a page.
var ErrPageFull = errors.New("storage: page full")

// CheckRecord refuses a record of n bytes that no page can hold.
func CheckRecord(n int) error {
	if n > MaxRecord {
		return fmt.Errorf("storage: record of %d bytes can never fit a page", n)
	}
	return nil
}

// ErrBadSlot is returned for out-of-range or deleted slots.
var ErrBadSlot = errors.New("storage: bad slot")

// ErrCorrupt is the one corruption sentinel: every error caused by
// stored bytes that cannot be what the engine wrote wraps it. That is
// a page that fails its checksum or Validate (a torn write, truncation,
// garbage), a log that is not this format's, a malformed B+tree node or
// index entry, a heap record that does not decode, and an index that
// disagrees with its heap.
var ErrCorrupt = errors.New("corrupt database")

// Page is one fixed-size slotted page.
type Page [PageSize]byte

// InitPage resets p to an empty slotted page.
func (p *Page) Init() {
	for i := range p {
		p[i] = 0
	}
	p.setFreeStart(pageHeaderSize)
}

func (p *Page) numSlots() int     { return int(binary.LittleEndian.Uint16(p[0:2])) }
func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p[0:2], uint16(n)) }

func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p[2:4])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p[2:4], uint16(n)) }

// Next returns the chained next page id (0 = end of chain).
func (p *Page) Next() uint32 { return binary.LittleEndian.Uint32(p[4:8]) }

// SetNext sets the chained next page id.
func (p *Page) SetNext(pid uint32) { binary.LittleEndian.PutUint32(p[4:8], pid) }

// LSN returns the page's durable commit LSN — the commit-clock value
// under which the current image was published (0 = as initialized).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p[lsnOff : lsnOff+8]) }

// SetLSN stamps the page's commit LSN. Callers must restamp the
// checksum afterwards; the checksum covers the LSN field.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p[lsnOff:lsnOff+8], lsn) }

// crcTable is the Castagnoli polynomial used for page and WAL record
// checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the stored page checksum.
func (p *Page) Checksum() uint32 { return binary.LittleEndian.Uint32(p[checksumOff : checksumOff+4]) }

// ComputeChecksum returns the CRC32-C of the page contents with the
// checksum field treated as zero.
func (p *Page) ComputeChecksum() uint32 {
	c := crc32.Update(0, crcTable, p[:checksumOff])
	return crc32.Update(c, crcTable, p[checksumOff+4:])
}

// StampChecksum recomputes and stores the page checksum. Every page
// image that reaches stable storage (data file or WAL) is stamped.
func (p *Page) StampChecksum() {
	binary.LittleEndian.PutUint32(p[checksumOff:checksumOff+4], p.ComputeChecksum())
}

// VerifyChecksum compares the stored checksum against the computed one,
// returning an ErrCorrupt-wrapped error on mismatch (a torn write
// or bit rot).
func (p *Page) VerifyChecksum() error {
	if got, want := p.ComputeChecksum(), p.Checksum(); got != want {
		return fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return nil
}

func (p *Page) slotAt(i int) (off, ln int) {
	base := PageSize - (i+1)*slotSize
	return int(binary.LittleEndian.Uint16(p[base : base+2])),
		int(binary.LittleEndian.Uint16(p[base+2 : base+4]))
}

func (p *Page) setSlot(i, off, ln int) {
	base := PageSize - (i+1)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p[base+2:base+4], uint16(ln))
}

// FreeSpace returns the bytes available for a new record including its
// slot entry.
func (p *Page) FreeSpace() int {
	return PageSize - p.numSlots()*slotSize - p.freeStart()
}

// Insert stores the record and returns its slot number. Tombstoned
// slots are reused when the record fits in a fresh region.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) == 0 {
		return 0, fmt.Errorf("storage: empty record")
	}
	if err := CheckRecord(len(rec)); err != nil {
		return 0, err
	}
	// find a tombstone to reuse
	slot := -1
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slotAt(i); off == 0 {
			slot = i
			break
		}
	}
	need := len(rec)
	if slot == -1 {
		need += slotSize
	}
	if p.FreeSpace() < need {
		return 0, ErrPageFull
	}
	off := p.freeStart()
	copy(p[off:], rec)
	p.setFreeStart(off + len(rec))
	if slot == -1 {
		slot = p.numSlots()
		p.setNumSlots(slot + 1)
	}
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Get returns the record bytes in slot i (a view into the page; copy
// before retaining).
func (p *Page) Get(i int) ([]byte, error) {
	if i < 0 || i >= p.numSlots() {
		return nil, ErrBadSlot
	}
	off, ln := p.slotAt(i)
	if off == 0 {
		return nil, ErrBadSlot
	}
	return p[off : off+ln], nil
}

// Delete tombstones slot i. The record space is reclaimed by Compact.
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.numSlots() {
		return ErrBadSlot
	}
	if off, _ := p.slotAt(i); off == 0 {
		return ErrBadSlot
	}
	p.setSlot(i, 0, 0)
	return nil
}

// InsertAt stores the record as slot i, moving slots i.. up by one:
// the positional counterpart of Insert for pages whose slot order
// carries meaning (B+tree nodes keep slot order = key order). The
// record goes at freeStart; only the directory words behind i move.
func (p *Page) InsertAt(i int, rec []byte) error {
	n := p.numSlots()
	if i < 0 || i > n {
		return ErrBadSlot
	}
	if len(rec) == 0 {
		return fmt.Errorf("storage: empty record")
	}
	if p.FreeSpace() < len(rec)+slotSize {
		return ErrPageFull
	}
	off := p.freeStart()
	copy(p[off:], rec)
	p.setFreeStart(off + len(rec))
	copy(p[PageSize-(n+1)*slotSize:], p[PageSize-n*slotSize:PageSize-i*slotSize])
	p.setNumSlots(n + 1)
	p.setSlot(i, off, len(rec))
	return nil
}

// DeleteAt removes slot i outright, moving the slots behind it down by
// one (Delete leaves a tombstone and every other slot where it was).
// The record's bytes stay behind as a hole until Compact.
func (p *Page) DeleteAt(i int) error {
	n := p.numSlots()
	if i < 0 || i >= n {
		return ErrBadSlot
	}
	copy(p[PageSize-(n-1)*slotSize:], p[PageSize-n*slotSize:PageSize-(i+1)*slotSize])
	p.setNumSlots(n - 1)
	return nil
}

// Compact rewrites live records contiguously in slot order, reclaiming
// the space of tombstones and holes while preserving slot numbers.
func (p *Page) Compact() {
	old := *p
	off := pageHeaderSize
	for i := 0; i < p.numSlots(); i++ {
		o, ln := old.slotAt(i)
		if o == 0 {
			continue
		}
		copy(p[off:], old[o:o+ln])
		p.setSlot(i, off, ln)
		off += ln
	}
	p.setFreeStart(off)
}

// Validate checks the structural invariants of a page read from disk:
// the slot directory and record area must fit the page and every live
// slot must reference a region inside the record area. It exists so a
// torn or garbage page surfaces as a clean error instead of an
// out-of-range panic in slot arithmetic.
func (p *Page) Validate() error {
	ns := p.numSlots()
	if pageHeaderSize+ns*slotSize > PageSize {
		return fmt.Errorf("%w: slot directory of %d entries overflows page", ErrCorrupt, ns)
	}
	fs := p.freeStart()
	if fs < pageHeaderSize || fs > PageSize-ns*slotSize {
		return fmt.Errorf("%w: free start %d out of range", ErrCorrupt, fs)
	}
	for i := 0; i < ns; i++ {
		off, ln := p.slotAt(i)
		if off == 0 {
			continue // tombstone
		}
		if off < pageHeaderSize || off+ln > fs {
			return fmt.Errorf("%w: slot %d region [%d,%d) outside record area", ErrCorrupt, i, off, off+ln)
		}
	}
	return nil
}

// LiveRecords calls fn for every live slot, stopping early on false.
func (p *Page) LiveRecords(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.numSlots(); i++ {
		off, ln := p.slotAt(i)
		if off == 0 {
			continue
		}
		if !fn(i, p[off:off+ln]) {
			return
		}
	}
}
