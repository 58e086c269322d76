package storage

import (
	"io"
	"io/fs"
	"slices"
	"sync"
)

// MemFS is a file system held in memory. Open and Remove fit the
// store's OpenFile and RemoveFile hooks.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*MemFile
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*MemFile)} }

// Open returns the named file, created empty when create is true; a
// missing file with create=false fails with fs.ErrNotExist.
func (m *MemFS) Open(name string, create bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		if !create {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		m.files[name] = &MemFile{}
	}
	return m.files[name], nil
}

// Remove deletes the named file; open handles keep its bytes.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// MemFile is one in-memory File. Sync has nothing to make durable.
type MemFile struct {
	mu sync.Mutex
	b  []byte
}

func (f *MemFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := copy(p, f.b[min(off, int64(len(f.b))):]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// WriteAt writes p at off, zero-filling any gap past the end.
func (f *MemFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.b)) {
		f.resize(end)
	}
	return copy(f.b[off:], p), nil
}

func (f *MemFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resize(size)
	return nil
}

// resize cuts the file to size bytes or extends it with zeros.
func (f *MemFile) resize(size int64) {
	old := int64(len(f.b))
	f.b = slices.Grow(f.b, int(max(size-old, 0)))[:size]
	if size > old {
		clear(f.b[old:])
	}
}

func (f *MemFile) Sync() error  { return nil }
func (f *MemFile) Close() error { return nil }

func (f *MemFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.b)), nil
}
