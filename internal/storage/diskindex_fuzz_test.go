package storage

import (
	"bytes"
	"testing"
)

// FuzzIndexPage mirrors the repository's parser fuzzers for the index
// entry codec the hash index and the B+tree share: entries round-trip
// exactly, and arbitrary bytes — fed record-wise and as whole page
// images through Page.Validate — must never panic; they either decode
// consistently or fail cleanly.
func FuzzIndexPage(f *testing.F) {
	f.Add([]byte("key"), uint32(7), uint16(3))
	f.Add([]byte{}, uint32(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint32(1<<31), uint16(65535))
	f.Add([]byte{indexMetaTag, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, uint32(1), uint16(0))
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

		// interpret the input as a whole page image: a page that passes
		// Validate must iterate cleanly
		var p Page
		copy(p[:], key)
		if p.Validate() != nil {
			return
		}
		p.LiveRecords(func(_ int, rec []byte) bool {
			decodeIndexEntry(rec)
			return true
		})
	})
}
