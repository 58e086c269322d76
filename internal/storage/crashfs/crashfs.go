// Package crashfs is test support for the recovery protocol
// (docs/recovery.md): an in-memory file system that journals every
// write, truncate and sync; the sweep that reopens each distinct crash
// state of a journal; and the faults commit-path tests inject.
package crashfs

import (
	"fmt"
	"io"
	"io/fs"
	"sync"

	"repro/internal/storage"
)

// entry is one journaled write ('w'), truncate ('t') or sync ('s').
type entry struct {
	name      string
	kind      byte
	off, size int64 // a write's offset, a truncate's target
	data      []byte
}

// cost is the op's number of cuts: one per byte written, one per
// truncate.
func (op entry) cost() int64 {
	if op.kind == 't' {
		return 1
	}
	return int64(len(op.data))
}

// Journal is the ops recorded since FS.Record, in order.
type Journal []entry

// End is the journal's last cut, where every write has landed.
func (j Journal) End() (n int64) {
	for _, op := range j {
		n += op.cost()
	}
	return n
}

// apply applies op's first upto cuts to files. A write zero-fills any
// gap past the end, and creates the file even when no byte lands.
func apply(files map[string][]byte, op entry, upto int64) {
	b := files[op.name]
	grow := func(n int64) {
		if n > int64(len(b)) {
			b = append(b, make([]byte, n-int64(len(b)))...)
		}
	}
	switch {
	case op.kind == 'w':
		p := op.data[:min(upto, int64(len(op.data)))]
		grow(op.off + int64(len(p)))
		copy(b[op.off:], p)
	case op.kind == 't' && upto > 0:
		grow(op.size)
		b = b[:op.size]
	default:
		return
	}
	files[op.name] = b
}

func clone(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for n, b := range files {
		out[n] = append([]byte(nil), b...)
	}
	return out
}

// FS is an in-memory file system; Open and Remove fit the store's
// OpenFile and RemoveFile hooks.
type FS struct {
	mu        sync.Mutex
	files     map[string][]byte
	journal   Journal
	recording bool
	failSyncs int
	failWrite func(name string) error
}

// New returns a file system holding files, which it writes into (nil:
// none).
func New(files map[string][]byte) *FS {
	if files == nil {
		files = map[string][]byte{}
	}
	return &FS{files: files}
}

// Open returns the named file, created empty when create is set; a
// missing file with create unset fails with fs.ErrNotExist.
func (m *FS) Open(name string, create bool) (storage.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		if !create {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		m.files[name] = nil
	}
	return &file{m, name}, nil
}

// Remove deletes the named file.
func (m *FS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Snapshot returns a copy of every file.
func (m *FS) Snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return clone(m.files)
}

// Record starts a new journal and returns a copy of the files as they
// are: the base its crash states are replayed over.
func (m *FS) Record() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recording, m.journal = true, nil
	return clone(m.files)
}

// Journal returns what has been recorded since Record.
func (m *FS) Journal() Journal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal
}

// FailSyncs fails the next n Syncs of any file; they are not journaled.
func (m *FS) FailSyncs(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncs = n
}

// FailWrite asks hook (nil: none), under the file system's lock, before
// every WriteAt; an error fails the write and leaves the file as it was.
func (m *FS) FailWrite(hook func(name string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrite = hook
}

// CheckPages checks that the named paged file is whole pages and that
// each page in ref passes its checksum. A recovered database must pass
// for the pages its committed structures reach; the rest are exempt,
// since a crash can strand an uncommitted allocation torn and nothing
// reads it.
func (m *FS) CheckPages(name string, ref map[uint32]bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data := m.files[name]
	if len(data)%storage.PageSize != 0 {
		return fmt.Errorf("recovered file size %d ragged", len(data))
	}
	var p storage.Page
	for pid := range ref {
		if off := int(pid-1) * storage.PageSize; off < len(data) {
			copy(p[:], data[off:])
			if err := p.VerifyChecksum(); err != nil {
				return fmt.Errorf("page %d of recovered file: %v", pid, err)
			}
		}
	}
	return nil
}

// do applies op, journaling it while recording; m.mu is held.
func (m *FS) do(op entry) {
	apply(m.files, op, op.cost())
	if m.recording {
		m.journal = append(m.journal, op)
	}
}

type file struct {
	fs   *FS
	name string
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b := f.fs.files[f.name]
	n := copy(p, b[min(off, int64(len(b))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.failWrite != nil {
		if err := f.fs.failWrite(f.name); err != nil {
			return 0, err
		}
	}
	f.fs.do(entry{name: f.name, kind: 'w', off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

func (f *file) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.do(entry{name: f.name, kind: 't', size: size})
	return nil
}

func (f *file) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.failSyncs > 0 {
		f.fs.failSyncs--
		return fmt.Errorf("crashfs: injected sync failure on %s", f.name)
	}
	f.fs.do(entry{name: f.name, kind: 's'})
	return nil
}

func (f *file) Close() error { return nil }

func (f *file) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.fs.files[f.name])), nil
}
