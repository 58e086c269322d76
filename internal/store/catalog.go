package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dep"
	"repro/internal/encoding"
	"repro/internal/schema"
	"repro/internal/storage"
)

// relRecordTag marks a relation definition record in the catalog heap.
const relRecordTag = 'R'

// RelationDef is the durable definition of one relation: everything the
// engine needs to rebuild its canonical-form maintainer on open.
type RelationDef struct {
	Name   string
	Schema *schema.Schema
	// Order is the nest order; Order[len-1] is the last-nested (fixed /
	// determinant) attribute the index is keyed on.
	Order schema.Permutation
	FDs   []dep.FD
	MVDs  []dep.MVD
	// Shards is the number of heap chains the relation's tuples are
	// partitioned across, keyed by the hash of the determinant atom
	// (0 and 1 both mean one chain). Each shard owns a disjoint heap
	// chain and its own index, so statements on different shards of
	// one hot relation run and commit concurrently.
	Shards int
}

// maxShards bounds the catalog encoding; far above any useful fan-out
// (shard count should track writer concurrency, not data volume).
const maxShards = 64

func (d RelationDef) validate() error {
	if d.Name == "" {
		return fmt.Errorf("store: relation name empty")
	}
	if d.Schema == nil || d.Schema.Degree() == 0 {
		return fmt.Errorf("store: relation %q needs a non-empty schema", d.Name)
	}
	if !d.Order.Valid(d.Schema) {
		return fmt.Errorf("store: invalid nest order %v for %q", d.Order, d.Name)
	}
	if d.Shards < 0 || d.Shards > maxShards {
		return fmt.Errorf("store: relation %q shard count %d out of range [0,%d]", d.Name, d.Shards, maxShards)
	}
	return nil
}

// shardRoots locates one shard's durable structures: its heap chain
// head and the meta page of its B+tree. Both are real page ids, never
// zero.
type shardRoots struct {
	heapFirst uint32
	rangeRoot uint32
}

// catalogEntry is a decoded catalog record plus its location; shards
// has one element per shard, def.Shards of them.
type catalogEntry struct {
	def    RelationDef
	shards []shardRoots
	rid    storage.RID
}

// encodeCatalogRecord serializes a relation definition:
//
//	tag:'R' nameLen:uvarint name heapFirst:uvarint schema
//	orderLen:uvarint idx:uvarint* nFDs:uvarint fd* nMVDs:uvarint mvd*
//	fd/mvd := nLhs:uvarint (len name)* nRhs:uvarint (len name)*
//	nExtra:uvarint heapFirst:uvarint*nExtra
//	rangeRoot:uvarint*(1+nExtra)
//
// shards[0] supplies the leading heapFirst; nExtra = len(shards)-1 heap
// roots locate shards 1..K-1; the B+tree roots follow for every shard,
// shard 0 first. Every field is mandatory.
func encodeCatalogRecord(def RelationDef, shards []shardRoots) []byte {
	b := []byte{relRecordTag}
	b = appendString(b, def.Name)
	b = binary.AppendUvarint(b, uint64(shards[0].heapFirst))
	b = encoding.AppendSchema(b, def.Schema)
	b = binary.AppendUvarint(b, uint64(len(def.Order)))
	for _, i := range def.Order {
		b = binary.AppendUvarint(b, uint64(i))
	}
	b = binary.AppendUvarint(b, uint64(len(def.FDs)))
	for _, f := range def.FDs {
		b = appendAttrSet(b, f.Lhs)
		b = appendAttrSet(b, f.Rhs)
	}
	b = binary.AppendUvarint(b, uint64(len(def.MVDs)))
	for _, m := range def.MVDs {
		b = appendAttrSet(b, m.Lhs)
		b = appendAttrSet(b, m.Rhs)
	}
	b = binary.AppendUvarint(b, uint64(len(shards)-1))
	for _, s := range shards[1:] {
		b = binary.AppendUvarint(b, uint64(s.heapFirst))
	}
	for _, s := range shards {
		b = binary.AppendUvarint(b, uint64(s.rangeRoot))
	}
	return b
}

// takeRoot reads one page-id field of relation name's record; shard
// and what name the field in the error. A missing, zero or over-wide
// root is corruption: every structure of every shard exists from
// CreateRelation on.
func takeRoot(b []byte, name string, shard int, what string) (uint32, []byte, error) {
	v, rest, err := takeUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: missing shard %d %s of %q", ErrCorrupt, shard, what, name)
	}
	if v == 0 || v > 1<<32-1 {
		return 0, nil, fmt.Errorf("%w: impossible shard %d %s %d of %q", ErrCorrupt, shard, what, v, name)
	}
	return uint32(v), rest, nil
}

func decodeCatalogRecord(rec []byte) (catalogEntry, error) {
	var ce catalogEntry
	b := rec[1:] // tag already checked by caller
	name, b, err := takeString(b)
	if err != nil {
		return ce, fmt.Errorf("%w: relation name: %v", ErrCorrupt, err)
	}
	ce.def.Name = name
	var first shardRoots
	first.heapFirst, b, err = takeRoot(b, name, 0, "heap root")
	if err != nil {
		return ce, err
	}
	sch, n, err := encoding.DecodeSchema(b)
	if err != nil {
		return ce, fmt.Errorf("%w: schema of %q: %v", ErrCorrupt, name, err)
	}
	ce.def.Schema = sch
	b = b[n:]
	oLen, b, err := takeUvarint(b)
	if err != nil || oLen != uint64(sch.Degree()) {
		return ce, fmt.Errorf("%w: nest order of %q", ErrCorrupt, name)
	}
	ce.def.Order = make(schema.Permutation, oLen)
	for i := range ce.def.Order {
		v, rest, err := takeUvarint(b)
		if err != nil {
			return ce, fmt.Errorf("%w: nest order of %q", ErrCorrupt, name)
		}
		ce.def.Order[i] = int(v)
		b = rest
	}
	if !ce.def.Order.Valid(sch) {
		return ce, fmt.Errorf("%w: nest order of %q is not a permutation", ErrCorrupt, name)
	}
	nFDs, b, err := takeUvarint(b)
	if err != nil || nFDs > uint64(len(b)) {
		return ce, fmt.Errorf("%w: FD count of %q", ErrCorrupt, name)
	}
	for i := uint64(0); i < nFDs; i++ {
		var lhs, rhs []string
		lhs, b, err = takeStrings(b)
		if err == nil {
			rhs, b, err = takeStrings(b)
		}
		if err != nil {
			return ce, fmt.Errorf("%w: FD %d of %q: %v", ErrCorrupt, i, name, err)
		}
		ce.def.FDs = append(ce.def.FDs, dep.NewFD(lhs, rhs))
	}
	nMVDs, b, err := takeUvarint(b)
	if err != nil || nMVDs > uint64(len(b)) {
		return ce, fmt.Errorf("%w: MVD count of %q", ErrCorrupt, name)
	}
	for i := uint64(0); i < nMVDs; i++ {
		var lhs, rhs []string
		lhs, b, err = takeStrings(b)
		if err == nil {
			rhs, b, err = takeStrings(b)
		}
		if err != nil {
			return ce, fmt.Errorf("%w: MVD %d of %q: %v", ErrCorrupt, i, name, err)
		}
		ce.def.MVDs = append(ce.def.MVDs, dep.NewMVD(lhs, rhs))
	}
	nx, b, err := takeUvarint(b)
	if err != nil || nx >= maxShards {
		return ce, fmt.Errorf("%w: missing or impossible shard count of %q", ErrCorrupt, name)
	}
	ce.shards = append(ce.shards, first)
	for i := 1; i <= int(nx); i++ {
		var s shardRoots
		if s.heapFirst, b, err = takeRoot(b, name, i, "heap root"); err != nil {
			return ce, err
		}
		ce.shards = append(ce.shards, s)
	}
	ce.def.Shards = len(ce.shards)
	for i := range ce.shards {
		if ce.shards[i].rangeRoot, b, err = takeRoot(b, name, i, "index root"); err != nil {
			return ce, err
		}
	}
	if len(b) != 0 {
		return ce, fmt.Errorf("%w: %d trailing bytes in catalog record of %q", ErrCorrupt, len(b), name)
	}
	return ce, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendAttrSet(b []byte, s schema.AttrSet) []byte {
	names := s.Sorted()
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendString(b, n)
	}
	return b
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, b[n:], nil
}

func takeString(b []byte) (string, []byte, error) {
	l, b, err := takeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if l > uint64(len(b)) {
		return "", nil, fmt.Errorf("short string")
	}
	return string(b[:l]), b[l:], nil
}

func takeStrings(b []byte) ([]string, []byte, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("string count %d too large", n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var s string
		s, b, err = takeString(b)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, b, nil
}
