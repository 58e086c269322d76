// Package encoding provides the binary codec for atoms, value sets,
// NFR tuples, and relations — the serialization layer under the
// storage engine — plus a line-oriented text format for loading the
// paper's examples and workload files.
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
	"bufio"
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

// DecodeAtom decodes one atom from b, returning the atom and the
// number of bytes consumed.
func DecodeAtom(b []byte) (value.Atom, int, error) {
	if len(b) == 0 {
		return value.Atom{}, 0, fmt.Errorf("%w: empty atom", ErrCorrupt)
	}
	k := value.Kind(b[0])
	pos := 1
	switch k {
	case value.Null:
		return value.NullAtom(), pos, nil
	case value.Bool, value.Int:
		v, n := binary.Varint(b[pos:])
		if n <= 0 {
			return value.Atom{}, 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		pos += n
		if k == value.Bool {
			return value.NewBool(v != 0), pos, nil
		}
		return value.NewInt(v), pos, nil
	case value.Float:
		if len(b) < pos+8 {
			return value.Atom{}, 0, fmt.Errorf("%w: short float", ErrCorrupt)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		return value.NewFloat(f), pos + 8, nil
	case value.String:
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return value.Atom{}, 0, fmt.Errorf("%w: bad string length", ErrCorrupt)
		}
		pos += n
		if uint64(len(b)-pos) < l {
			return value.Atom{}, 0, fmt.Errorf("%w: short string", ErrCorrupt)
		}
		return value.NewString(string(b[pos : pos+int(l)])), pos + int(l), nil
	default:
		return value.Atom{}, 0, fmt.Errorf("%w: unknown atom kind %d", ErrCorrupt, b[0])
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

// DecodeSet decodes one set from b. AppendSet writes a set's atoms in
// its canonical order, strictly ascending by value.Compare, so the
// decoded slice is adopted as it stands; atoms out of that order, or
// repeated, are ErrCorrupt.
func DecodeSet(b []byte) (vset.Set, int, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return vset.Set{}, 0, fmt.Errorf("%w: bad set count", ErrCorrupt)
	}
	pos := n
	if cnt > uint64(len(b)) { // each atom needs ≥1 byte
		return vset.Set{}, 0, fmt.Errorf("%w: set count %d too large", ErrCorrupt, cnt)
	}
	atoms := make([]value.Atom, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		a, n, err := DecodeAtom(b[pos:])
		if err != nil {
			return vset.Set{}, 0, err
		}
		if i > 0 && value.Compare(atoms[i-1], a) >= 0 {
			return vset.Set{}, 0, fmt.Errorf("%w: set atom %d is not above atom %d", ErrCorrupt, i, i-1)
		}
		atoms = append(atoms, a)
		pos += n
	}
	return vset.FromSorted(atoms), pos, nil
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

// DecodeTuple decodes one tuple from b.
func DecodeTuple(b []byte) (tuple.Tuple, int, error) {
	deg, n := binary.Uvarint(b)
	if n <= 0 {
		return tuple.Tuple{}, 0, fmt.Errorf("%w: bad tuple degree", ErrCorrupt)
	}
	pos := n
	if deg > uint64(len(b)) {
		return tuple.Tuple{}, 0, fmt.Errorf("%w: tuple degree %d too large", ErrCorrupt, deg)
	}
	sets := make([]vset.Set, 0, deg)
	for i := uint64(0); i < deg; i++ {
		s, n, err := DecodeSet(b[pos:])
		if err != nil {
			return tuple.Tuple{}, 0, err
		}
		if s.IsEmpty() {
			return tuple.Tuple{}, 0, fmt.Errorf("%w: empty tuple component", ErrCorrupt)
		}
		sets = append(sets, s)
		pos += n
	}
	t, err := tuple.New(sets...)
	if err != nil {
		return tuple.Tuple{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, pos, nil
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

// WriteText writes the relation in the line-oriented text format:
// a header "attr:kind attr:kind ...", then one tuple per line with
// components separated by '|' and set members by ','. Atoms use the
// value.Parse literal syntax.
func WriteText(w io.Writer, r *core.Relation) error {
	bw := bufio.NewWriter(w)
	s := r.Schema()
	for i := 0; i < s.Degree(); i++ {
		if i > 0 {
			bw.WriteByte(' ')
		}
		fmt.Fprintf(bw, "%s:%s", s.Attr(i).Name, s.Attr(i).Kind)
	}
	bw.WriteByte('\n')
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		for j, set := range t.Sets() {
			if j > 0 {
				bw.WriteString(" | ")
			}
			atoms := set.Atoms()
			for k, a := range atoms {
				if k > 0 {
					bw.WriteString(",")
				}
				bw.WriteString(a.String())
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadText parses the text format written by WriteText.
func ReadText(r io.Reader) (*core.Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("encoding: missing header")
	}
	var attrs []schema.Attribute
	for _, field := range strings.Fields(sc.Text()) {
		name, kindName, found := strings.Cut(field, ":")
		kind := value.Null
		if found {
			k, ok := value.ParseKind(kindName)
			if !ok {
				return nil, fmt.Errorf("encoding: bad kind %q", kindName)
			}
			kind = k
		}
		attrs = append(attrs, schema.Attribute{Name: name, Kind: kind})
	}
	s, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	rel := core.NewRelation(s)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "|")
		if len(parts) != s.Degree() {
			return nil, fmt.Errorf("encoding: line %d has %d components, schema degree %d", line, len(parts), s.Degree())
		}
		sets := make([]vset.Set, len(parts))
		for i, p := range parts {
			var atoms []value.Atom
			for _, lit := range strings.Split(p, ",") {
				a, err := value.Parse(lit)
				if err != nil {
					return nil, fmt.Errorf("encoding: line %d: %v", line, err)
				}
				atoms = append(atoms, a)
			}
			sets[i] = vset.New(atoms...)
		}
		t, err := tuple.New(sets...)
		if err != nil {
			return nil, fmt.Errorf("encoding: line %d: %v", line, err)
		}
		rel.Add(t)
	}
	return rel, sc.Err()
}
