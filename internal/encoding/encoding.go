// Package encoding provides the binary codec for atoms, value sets,
// NFR tuples, and relations — the serialization layer under the
// storage engine.
//
// Binary layout (little-endian varints, no alignment):
//
//	atom     := kind:uint8 payload
//	set      := count:uvarint atom*
//	tuple    := degree:uvarint set*
//	relation := magic:4 version:uint8 schema tupleCount:uvarint tuple*
//	schema   := degree:uvarint (nameLen:uvarint name kind:uint8)*
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// Magic identifies serialized relations.
var Magic = [4]byte{'N', 'F', 'R', '1'}

// Version is the current format version.
const Version = 1

// ErrCorrupt is wrapped by decode errors caused by malformed input.
var ErrCorrupt = errors.New("encoding: corrupt data")

// AppendAtom appends the binary encoding of a to dst.
func AppendAtom(dst []byte, a value.Atom) []byte {
	dst = append(dst, byte(a.K))
	switch a.K {
	case value.Null:
	case value.Bool, value.Int:
		dst = binary.AppendVarint(dst, a.I)
	case value.Float:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.F))
		dst = append(dst, buf[:]...)
	case value.String:
		dst = binary.AppendUvarint(dst, uint64(len(a.S)))
		dst = append(dst, a.S...)
	}
	return dst
}

// atomAt decodes the atom at the front of b but for a string's
// payload, and returns its encoded length and the length of the
// payload, which ends the encoding (0 for other kinds).
func atomAt(b []byte) (a value.Atom, n, strLen int, err error) {
	if len(b) == 0 {
		return a, 0, 0, fmt.Errorf("%w: empty atom", ErrCorrupt)
	}
	switch k := value.Kind(b[0]); k {
	case value.Null:
		return value.NullAtom(), 1, 0, nil
	case value.Bool, value.Int:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return a, 0, 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		if k == value.Bool {
			return value.NewBool(v != 0), 1 + n, 0, nil
		}
		return value.NewInt(v), 1 + n, 0, nil
	case value.Float:
		if len(b) < 9 {
			return a, 0, 0, fmt.Errorf("%w: short float", ErrCorrupt)
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, 0, nil
	case value.String:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return a, 0, 0, fmt.Errorf("%w: bad string length", ErrCorrupt)
		}
		if uint64(len(b)-1-n) < l {
			return a, 0, 0, fmt.Errorf("%w: short string", ErrCorrupt)
		}
		return value.NewString(""), 1 + n + int(l), int(l), nil
	default:
		return a, 0, 0, fmt.Errorf("%w: unknown atom kind %d", ErrCorrupt, b[0])
	}
}

// AppendSet appends the binary encoding of s to dst.
func AppendSet(dst []byte, s vset.Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	for _, a := range s.Atoms() {
		dst = AppendAtom(dst, a)
	}
	return dst
}

// AppendTuple appends the binary encoding of t to dst.
func AppendTuple(dst []byte, t tuple.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.Degree()))
	for _, s := range t.Sets() {
		dst = AppendSet(dst, s)
	}
	return dst
}

// EncodeTuple returns the binary encoding of t.
func EncodeTuple(t tuple.Tuple) []byte { return AppendTuple(nil, t) }

// DecodeTuple decodes one tuple from b. tupleLayout checks the
// record first; the tuple is then built from three allocations: one
// string holding every string payload, one atom slice shared by the
// components, and the component slice. AppendSet writes a set's atoms
// strictly ascending by value.Compare, so each component is adopted as
// it stands; atoms out of that order, or repeated, are ErrCorrupt.
// Because the components share those allocations, a set or atom kept
// after the tuple is dropped keeps the whole record's atoms and string
// bytes alive: at most one record's worth per kept set.
func DecodeTuple(b []byte) (tuple.Tuple, int, error) {
	deg, end, atoms, strBytes, err := tupleLayout(b)
	if err != nil {
		return tuple.Tuple{}, 0, err
	}
	var payloads strings.Builder
	payloads.Grow(strBytes)
	all := make([]value.Atom, atoms)
	sets := make([]vset.Set, deg)
	_, pos := binary.Uvarint(b)
	for i := range sets {
		cnt, n := binary.Uvarint(b[pos:])
		pos += n
		set := all[:cnt:cnt]
		all = all[cnt:]
		for j := range set {
			a, n, sl, _ := atomAt(b[pos:])
			payloads.Write(b[pos+n-sl : pos+n])
			s := payloads.String()
			a.S = s[len(s)-sl:] // "" but for a string
			set[j] = a
			pos += n
		}
		var bad int
		if sets[i], bad = vset.AdoptSorted(set); bad > 0 {
			return tuple.Tuple{}, 0, fmt.Errorf("%w: set atom %d is not above atom %d", ErrCorrupt, bad, bad-1)
		}
	}
	return tuple.Adopt(sets), end, nil
}

// tupleLayout checks that b begins with a tuple whose components are
// non-empty sets of well-formed atoms, and returns its degree, encoded
// length, atom count and total string payload length.
func tupleLayout(b []byte) (deg, end, atoms, strBytes int, err error) {
	d, pos := binary.Uvarint(b)
	if pos <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad tuple degree", ErrCorrupt)
	}
	if d > uint64(len(b)) {
		return 0, 0, 0, 0, fmt.Errorf("%w: tuple degree %d too large", ErrCorrupt, d)
	}
	for i := uint64(0); i < d; i++ {
		cnt, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("%w: bad set count", ErrCorrupt)
		}
		if cnt > uint64(len(b)-pos) { // each atom needs ≥1 byte
			return 0, 0, 0, 0, fmt.Errorf("%w: set count %d too large", ErrCorrupt, cnt)
		}
		if cnt == 0 {
			return 0, 0, 0, 0, fmt.Errorf("%w: empty tuple component", ErrCorrupt)
		}
		pos += n
		for j := uint64(0); j < cnt; j++ {
			_, n, sl, err := atomAt(b[pos:])
			if err != nil {
				return 0, 0, 0, 0, err
			}
			pos += n
			strBytes += sl
		}
		atoms += int(cnt)
	}
	return int(d), pos, atoms, strBytes, nil
}

// AppendSchema appends the binary encoding of s to dst.
func AppendSchema(dst []byte, s *schema.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Degree()))
	for i := 0; i < s.Degree(); i++ {
		a := s.Attr(i)
		dst = binary.AppendUvarint(dst, uint64(len(a.Name)))
		dst = append(dst, a.Name...)
		dst = append(dst, byte(a.Kind))
	}
	return dst
}

// DecodeSchema decodes a schema from b.
func DecodeSchema(b []byte) (*schema.Schema, int, error) {
	deg, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad schema degree", ErrCorrupt)
	}
	pos := n
	if deg > uint64(len(b)) {
		return nil, 0, fmt.Errorf("%w: schema degree %d too large", ErrCorrupt, deg)
	}
	attrs := make([]schema.Attribute, 0, deg)
	for i := uint64(0); i < deg; i++ {
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: bad attribute name length", ErrCorrupt)
		}
		pos += n
		if uint64(len(b)-pos) < l+1 {
			return nil, 0, fmt.Errorf("%w: short attribute", ErrCorrupt)
		}
		name := string(b[pos : pos+int(l)])
		pos += int(l)
		kind := value.Kind(b[pos])
		pos++
		attrs = append(attrs, schema.Attribute{Name: name, Kind: kind})
	}
	s, err := schema.New(attrs...)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, pos, nil
}

// WriteRelation serializes r to w.
func WriteRelation(w io.Writer, r *core.Relation) error {
	buf := make([]byte, 0, 4096)
	buf = append(buf, Magic[:]...)
	buf = append(buf, Version)
	buf = AppendSchema(buf, r.Schema())
	buf = binary.AppendUvarint(buf, uint64(r.Len()))
	for i := 0; i < r.Len(); i++ {
		buf = AppendTuple(buf, r.Tuple(i))
	}
	_, err := w.Write(buf)
	return err
}

// ReadRelation deserializes a relation from r.
func ReadRelation(r io.Reader) (*core.Relation, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(b) < 5 || string(b[:4]) != string(Magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if b[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, b[4])
	}
	pos := 5
	s, n, err := DecodeSchema(b[pos:])
	if err != nil {
		return nil, err
	}
	pos += n
	cnt, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad tuple count", ErrCorrupt)
	}
	pos += n
	rel := core.NewRelation(s)
	for i := uint64(0); i < cnt; i++ {
		t, n, err := DecodeTuple(b[pos:])
		if err != nil {
			return nil, err
		}
		if t.Degree() != s.Degree() {
			return nil, fmt.Errorf("%w: tuple degree mismatch", ErrCorrupt)
		}
		rel.Add(t)
		pos += n
	}
	return rel, nil
}
