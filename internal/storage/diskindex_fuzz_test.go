package storage

import (
	"bytes"
	"testing"
)

// FuzzIndexPage mirrors the repository's parser fuzzers for the index
// page codec: entry and meta records round-trip exactly, and arbitrary
// bytes — fed both record-wise and as whole page images through
// Page.Validate and the directory attach — must never panic; they
// either decode consistently or fail cleanly.
func FuzzIndexPage(f *testing.F) {
	f.Add([]byte("key"), uint32(7), uint16(3))
	f.Add([]byte{}, uint32(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint32(1<<31), uint16(65535))
	f.Add([]byte{indexMetaTag, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint32(1), uint16(0))
	f.Fuzz(func(t *testing.T, key []byte, pid uint32, slot uint16) {
		rid := RID{Page: pid, Slot: slot}
		rec := appendIndexEntry(nil, key, rid)
		if len(rec) <= maxIndexEntry {
			k, r, err := decodeIndexEntry(rec)
			if err != nil {
				t.Fatalf("round trip rejected: %v", err)
			}
			if !bytes.Equal(k, key) || r != rid {
				t.Fatalf("round trip changed entry: %q/%v -> %q/%v", key, rid, k, r)
			}
		}
		// every truncation of a valid record is rejected, never panics
		for i := 0; i < len(rec); i++ {
			if _, _, err := decodeIndexEntry(rec[:i]); err == nil {
				t.Fatalf("truncated entry of %d bytes accepted", i)
			}
		}
		// the raw input interpreted as a record must not panic either
		decodeIndexEntry(key)
		decodeIndexMeta(key)

		// interpret the input as a whole page image: a page that passes
		// Validate must iterate cleanly, and a directory built from it
		// must attach or fail cleanly (no panics, no hangs)
		var p Page
		copy(p[:], key)
		if p.Validate() != nil {
			return
		}
		p.LiveRecords(func(_ int, rec []byte) bool {
			decodeIndexEntry(rec)
			decodeIndexMeta(rec)
			return true
		})
		attachFuzzedDirectory(t, &p)
	})
}

// attachFuzzedDirectory stamps the fuzzed page into a tiny two-page
// file as the index directory root and attaches: OpenDiskIndex must
// return an index or an error, never panic. The second page is a valid
// empty bucket so directories pointing at page 2 can resolve.
func attachFuzzedDirectory(t *testing.T, dir *Page) {
	t.Helper()
	mem := &MemFile{}
	pg, err := NewPager(mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Allocate(); err != nil { // page 1: directory
		t.Fatal(err)
	}
	if _, err := pg.Allocate(); err != nil { // page 2: empty bucket
		t.Fatal(err)
	}
	if err := pg.Write(1, dir); err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(pg, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenDiskIndex(bp, 1)
	if err != nil {
		return
	}
	// an index that attached must also probe and enumerate cleanly
	ix.Get([]byte("probe"))
	ix.Pages()
}
