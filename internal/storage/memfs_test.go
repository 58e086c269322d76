package storage

import (
	"bytes"
	"errors"
	"io/fs"
	"testing"
)

// TestMemFS: a missing file fails with fs.ErrNotExist, a write past the
// end zero-fills the gap, and truncation cuts and zero-extends.
func TestMemFS(t *testing.T) {
	m := NewMemFS()
	if _, err := m.Open("db", false); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a missing file: %v", err)
	}
	f, _ := m.Open("db", true)
	f.WriteAt([]byte("ab"), 3)
	f.Truncate(4)
	f.Truncate(6)
	got := make([]byte, 8)
	if n, err := f.ReadAt(got, 0); n != 6 || err == nil || !bytes.Equal(got[:n], []byte{0, 0, 0, 'a', 0, 0}) {
		t.Fatalf("ReadAt = %d %v %q", n, err, got[:n])
	}
	if err := m.Remove("db"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("db"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second remove: %v", err)
	}
}
