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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// Magic identifies serialized relations.
var Magic = [4]byte{'N', 'F', 'R', '1'}

// Version is the current format version.
const Version = 1

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
// payload, and returns that payload as a slice of b (nil for other
// kinds) and the atom's encoded length.
func atomAt(b []byte) (a value.Atom, str []byte, n int, err error) {
	if str, ok := shortString(b); ok {
		return value.Atom{K: value.String}, str, 2 + len(str), nil
	}
	if len(b) == 0 {
		return a, nil, 0, fmt.Errorf("%w: empty atom", storage.ErrCorrupt)
	}
	switch k := value.Kind(b[0]); k {
	case value.Null:
		return value.NullAtom(), nil, 1, nil
	case value.Bool, value.Int:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return a, nil, 0, fmt.Errorf("%w: bad varint", storage.ErrCorrupt)
		}
		if k == value.Bool {
			return value.NewBool(v != 0), nil, 1 + n, nil
		}
		return value.NewInt(v), nil, 1 + n, nil
	case value.Float:
		if len(b) < 9 {
			return a, nil, 0, fmt.Errorf("%w: short float", storage.ErrCorrupt)
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), nil, 9, nil
	case value.String:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return a, nil, 0, fmt.Errorf("%w: bad string length", storage.ErrCorrupt)
		}
		if uint64(len(b)-1-n) < l {
			return a, nil, 0, fmt.Errorf("%w: short string", storage.ErrCorrupt)
		}
		return value.NewString(""), b[1+n : 1+n+int(l)], 1 + n + int(l), nil
	default:
		return a, nil, 0, fmt.Errorf("%w: unknown atom kind %d", storage.ErrCorrupt, b[0])
	}
}

// shortString returns the payload of a string atom of fewer than 128
// bytes, the common atom, at the front of b: its length is one varint
// byte.
func shortString(b []byte) ([]byte, bool) {
	if len(b) > 1 && b[0] == byte(value.String) && b[1] < 0x80 && int(b[1]) < len(b)-1 {
		return b[2 : 2+b[1]], true
	}
	return nil, false
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

// DecodeTuple decodes one tuple from b. walkTuple checks the record
// first; the tuple is then built from three allocations: one string
// holding every string payload, one atom slice shared by the
// components, and the component slice. Because the components share
// those allocations, a set or atom kept after the tuple is dropped
// keeps the whole record's atoms and string bytes alive: at most one
// record's worth per kept set.
func DecodeTuple(b []byte) (tuple.Tuple, int, error) {
	l, _, err := walkTuple(b, nil)
	if err != nil {
		return tuple.Tuple{}, 0, err
	}
	var payloads strings.Builder
	payloads.Grow(l.strBytes)
	all := make([]value.Atom, l.atoms)
	sets := make([]vset.Set, l.deg)
	_, pos := binary.Uvarint(b)
	for i := range sets {
		cnt, n := binary.Uvarint(b[pos:])
		pos += n
		set := all[:cnt:cnt]
		all = all[cnt:]
		for j := range set {
			a, str, n, _ := atomAt(b[pos:])
			payloads.Write(str)
			s := payloads.String()
			a.S = s[len(s)-len(str):] // "" but for a string
			set[j] = a
			pos += n
		}
		sets[i] = vset.Adopt(set)
	}
	return tuple.Adopt(sets), l.end, nil
}

// AtomTest is one conjunct a tuple record can answer before it is
// decoded: some atom a of component Comp has the outcome of
// value.Compare(a, Val) in Accept, a mask of AcceptLess, AcceptEqual
// and AcceptGreater.
type AtomTest struct {
	Comp   int
	Val    value.Atom
	Accept uint8
}

// The outcomes an AtomTest's Accept mask can hold, bit c+1 for
// value.Compare's result c.
const (
	AcceptLess uint8 = 1 << iota
	AcceptEqual
	AcceptGreater
)

// MaxAtomTests bounds the tests one MatchTuple call takes: walkTuple
// keeps one bit per test.
const MaxAtomTests = 64

// MatchTuple reports whether the tuple record rec, of degree deg,
// passes every test, without decoding it and without allocating. It
// errs exactly when DecodeTuple(rec) errs, leaves bytes after the
// tuple, or decodes a degree other than deg; a test on a component the
// tuple lacks fails.
func MatchTuple(rec []byte, deg int, tests []AtomTest) (bool, error) {
	if len(tests) > MaxAtomTests {
		return false, fmt.Errorf("encoding: %d atom tests, at most %d", len(tests), MaxAtomTests)
	}
	l, hit, err := walkTuple(rec, tests)
	if err != nil {
		return false, err
	}
	if l.end != len(rec) || l.deg != deg {
		return false, fmt.Errorf("%w: malformed tuple record", storage.ErrCorrupt)
	}
	return hit == ^uint64(0)>>(64-len(tests)), nil
}

// layout is what walkTuple learns of a tuple record: its degree,
// encoded length, atom count and total string payload length.
type layout struct{ deg, end, atoms, strBytes int }

// walkTuple is the one walk of a tuple record under DecodeTuple and
// MatchTuple. It checks that b begins with a tuple whose components
// are non-empty sets of well-formed atoms, strictly ascending under
// value.Compare (AppendSet writes them so; out of order or repeated is
// storage.ErrCorrupt, not repaired), and sets bit j of hit when some atom
// passes tests[j].
func walkTuple(b []byte, tests []AtomTest) (l layout, hit uint64, err error) {
	d, pos := binary.Uvarint(b)
	if pos <= 0 {
		return l, 0, fmt.Errorf("%w: bad tuple degree", storage.ErrCorrupt)
	}
	if d > uint64(len(b)) {
		return l, 0, fmt.Errorf("%w: tuple degree %d too large", storage.ErrCorrupt, d)
	}
	for i := 0; i < int(d); i++ {
		cnt, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return l, 0, fmt.Errorf("%w: bad set count", storage.ErrCorrupt)
		}
		if cnt > uint64(len(b)-pos) { // each atom needs ≥1 byte
			return l, 0, fmt.Errorf("%w: set count %d too large", storage.ErrCorrupt, cnt)
		}
		if cnt == 0 {
			return l, 0, fmt.Errorf("%w: empty tuple component", storage.ErrCorrupt)
		}
		pos += n
		var prev value.Atom
		var prevStr []byte
		for j := 0; j < int(cnt); j++ {
			// a short string is read here, not through atomAt, whose
			// call and results cost MatchTuple about a fifth of its time
			a := value.Atom{K: value.String}
			str, ok := shortString(b[pos:])
			n := 2 + len(str)
			if !ok {
				if a, str, n, err = atomAt(b[pos:]); err != nil {
					return l, 0, err
				}
			}
			pos += n
			if j > 0 && compareEncoded(&prev, prevStr, &a, str) >= 0 {
				return l, 0, fmt.Errorf("%w: set atom %d is not above atom %d", storage.ErrCorrupt, j, j-1)
			}
			prev, prevStr = a, str
			l.strBytes += len(str)
			for k := range tests {
				if tests[k].Comp == i && hit&(1<<k) == 0 && tests[k].Accept&(1<<(compareTo(&a, str, &tests[k].Val)+1)) != 0 {
					hit |= 1 << k
				}
			}
		}
		l.atoms += int(cnt)
	}
	l.deg, l.end = int(d), pos
	return l, hit, nil
}

// compareEncoded is value.Compare(*a, *b) for atoms whose string
// payloads are s and t.
func compareEncoded(a *value.Atom, s []byte, b *value.Atom, t []byte) int {
	if a.K == value.String && b.K == value.String {
		return bytes.Compare(s, t)
	}
	return value.Compare(*a, *b)
}

// compareTo is compareEncoded against a decoded atom v, without copying
// its string: string(s) in a comparison does not copy s.
func compareTo(a *value.Atom, s []byte, v *value.Atom) int {
	switch {
	case a.K != value.String || v.K != value.String:
		return value.Compare(*a, *v)
	case string(s) == v.S:
		return 0
	case string(s) < v.S:
		return -1
	}
	return 1
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
		return nil, 0, fmt.Errorf("%w: bad schema degree", storage.ErrCorrupt)
	}
	pos := n
	if deg > uint64(len(b)) {
		return nil, 0, fmt.Errorf("%w: schema degree %d too large", storage.ErrCorrupt, deg)
	}
	attrs := make([]schema.Attribute, 0, deg)
	for i := uint64(0); i < deg; i++ {
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: bad attribute name length", storage.ErrCorrupt)
		}
		pos += n
		if uint64(len(b)-pos) < l+1 {
			return nil, 0, fmt.Errorf("%w: short attribute", storage.ErrCorrupt)
		}
		name := string(b[pos : pos+int(l)])
		pos += int(l)
		kind := value.Kind(b[pos])
		pos++
		attrs = append(attrs, schema.Attribute{Name: name, Kind: kind})
	}
	s, err := schema.New(attrs...)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
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
		return nil, fmt.Errorf("%w: bad magic", storage.ErrCorrupt)
	}
	if b[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", storage.ErrCorrupt, b[4])
	}
	pos := 5
	s, n, err := DecodeSchema(b[pos:])
	if err != nil {
		return nil, err
	}
	pos += n
	cnt, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad tuple count", storage.ErrCorrupt)
	}
	pos += n
	rel := core.NewRelation(s)
	for i := uint64(0); i < cnt; i++ {
		t, n, err := DecodeTuple(b[pos:])
		if err != nil {
			return nil, err
		}
		if t.Degree() != s.Degree() {
			return nil, fmt.Errorf("%w: tuple degree mismatch", storage.ErrCorrupt)
		}
		rel.Add(t)
		pos += n
	}
	return rel, nil
}
