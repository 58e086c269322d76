package encoding

import (
	"encoding/binary"
	"math"

	"repro/internal/value"
)

// This file is the memcomparable atom codec used by the B+tree range
// index: AppendOrderedAtom produces byte strings whose bytes.Compare
// order is exactly value.Compare's order, so the index can stay a
// byte-oriented structure (like the hash index) while its scans agree
// with predicate evaluation — including across kinds, where
// value.Compare's kind-first total order (Null < Bool < Int < Float <
// String) is mirrored by the leading kind byte.
//
// Layout per kind (big-endian where it matters — varints are not
// order-preserving, which is why AppendAtom cannot be used as a key):
//
//	null    kind
//	bool    kind 0|1
//	int     kind uint64-BE of (v XOR minInt64)   — offset binary
//	float   kind uint64-BE, NaN → 0 (sorts first, as value.Compare
//	        orders NaN below every number); else −0 normalized to +0,
//	        negative bits inverted, positive sign bit set
//	string  kind raw-bytes (the payload runs to the end of the key)
//
// Because the string payload is the undelimited tail, an ordered key
// holds exactly ONE atom — which is all the range index needs.

// AppendOrderedAtom appends the memcomparable encoding of a to dst.
// For any atoms x, y: bytes.Compare(enc(x), enc(y)) ==
// value.Compare(x, y); equal atoms (including −0.0 vs +0.0 and any two
// NaNs, which value.Compare treats as equal) produce identical bytes.
func AppendOrderedAtom(dst []byte, a value.Atom) []byte {
	dst = append(dst, byte(a.K))
	switch a.K {
	case value.Null:
	case value.Bool:
		if a.I != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case value.Int:
		dst = binary.BigEndian.AppendUint64(dst, uint64(a.I)^(1<<63))
	case value.Float:
		dst = binary.BigEndian.AppendUint64(dst, orderedFloatBits(a.F))
	case value.String:
		dst = append(dst, a.S...)
	}
	return dst
}

// orderedFloatBits maps a float64 onto a uint64 whose unsigned order
// is value.Compare's float order: every NaN → 0 (NaN sorts below
// −Inf), then negatives with all bits inverted, then positives (−0
// first normalized to +0) with the sign bit set.
func orderedFloatBits(f float64) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	if f == 0 {
		f = 0 // collapse −0.0 onto +0.0: value.Compare treats them equal
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}
