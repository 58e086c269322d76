// Package nfr is the public API of the non-first-normal-form (NFR)
// relational database library, a from-scratch reproduction of
// Arisawa, Moriya & Miura, "Operations and the Properties on
// Non-First-Normal-Form Relational Databases" (VLDB 1983).
//
// The library has three layers:
//
//   - the model: atoms, value sets, NFR tuples, and relations with the
//     paper's operations — composition/decomposition (Defs. 1–2), nest
//     and canonical forms V_P (Defs. 4–5), irreducible forms (Def. 3),
//     fixedness (Def. 7) and cardinality classes (Def. 6);
//   - the engine: a catalog of relations kept permanently canonical by
//     the Section-4 incremental insert/delete algorithms, with declared
//     FDs/MVDs, an NF² query language whose planner routes reads
//     through each shard's durable B+tree (docs/queries.md has
//     the statement reference, the planner's soundness rules, and the
//     EXPLAIN format), and binary persistence;
//   - the substrate: dependency theory (closures, keys, Bernstein 3NF
//     synthesis, 4NF), a nested relational algebra, and a paged storage
//     engine realizing the paper's "realization view" — each relation's
//     canonical tuples live in heap chains of checksummed slotted
//     pages behind an LRU buffer pool, in a single database file with
//     a write-ahead log making every statement atomic and durable
//     across crashes (see docs/storage.md for the layer diagram, file
//     format, and buffer-pool tuning, and docs/recovery.md for the
//     WAL, checksum, and redo-on-open recovery protocol).
//
// Quick start:
//
//	db := nfr.NewDatabase()
//	db.Create(nfr.RelationDef{
//	    Name:   "enrollment",
//	    Schema: nfr.MustSchema("Student", "Course", "Club"),
//	    MVDs:   []nfr.MVD{nfr.NewMVD([]string{"Student"}, []string{"Course"})},
//	})
//	db.Insert("enrollment", nfr.Row("s1", "c1", "b1"))
//
// Multi-statement transactions (docs/api.md has the full lifecycle,
// option, context, and error-taxonomy reference plus a migration
// table):
//
//	db, _ := nfr.Open(path, nfr.WithPoolPages(256))
//	tx, _ := nfr.Begin(ctx, db)
//	tx.Insert("enrollment", nfr.Row("s9", "c1", "b2"))
//	tx.Insert("enrollment", nfr.Row("s9", "c2", "b2"))
//	if err := tx.Commit(); err != nil { ... } // one fsync for both
//
// A database file can also be served over TCP: cmd/nfr-server speaks
// the internal/wire frame protocol, the client package is the Go
// client (with the same error taxonomy rebuilt across the wire), and
// cmd/nfr-client is the interactive shell. See docs/server.md for the
// frame format, connection lifecycle, and shutdown-drain rules.
//
// See examples/ for runnable programs and internal/experiments for the
// paper-reproduction harness.
package nfr

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// Model types.
type (
	// Atom is one atomic domain element.
	Atom = value.Atom
	// Set is a canonical set of atoms — one NFR tuple component.
	Set = vset.Set
	// Tuple is one NFR tuple (a set per attribute).
	Tuple = tuple.Tuple
	// Flat is a 1NF tuple (one atom per attribute).
	Flat = tuple.Flat
	// Schema is an ordered list of typed attributes.
	Schema = schema.Schema
	// Attribute is one schema column.
	Attribute = schema.Attribute
	// AttrSet is an unordered attribute-name set.
	AttrSet = schema.AttrSet
	// Permutation is a nest order over a schema's attributes.
	Permutation = schema.Permutation
	// Relation is an NFR: a duplicate-free set of NFR tuples.
	Relation = core.Relation
	// Cardinality is the Definition-6 class of an attribute.
	Cardinality = core.Cardinality
)

// Dependency types.
type (
	// FD is a functional dependency.
	FD = dep.FD
	// MVD is a multivalued dependency.
	MVD = dep.MVD
)

// Engine types.
type (
	// Database is a catalog of canonical-form relations.
	Database = engine.Database
	// RelationDef declares a relation for Database.Create.
	RelationDef = engine.RelationDef
	// RelStats summarizes a live relation.
	RelStats = engine.RelStats
	// Session executes NF² query-language statements.
	Session = query.Session
	// Result is a query-language statement outcome.
	Result = query.Result
	// Pred is a tuple predicate for algebra selections.
	Pred = algebra.Pred
)

// Cardinality classes (Definition 6).
const (
	OneOne = core.OneOne
	NOne   = core.NOne
	OneN   = core.OneN
	MN     = core.MN
)

// Option configures Open (see docs/api.md).
type Option = engine.Option

// Open options.
var (
	// WithPoolPages sets the buffer-pool capacity in pages.
	WithPoolPages = engine.WithPoolPages
	// WithCheckpointBytes sets the WAL size that triggers an automatic
	// checkpoint (negative = only on Flush/Close).
	WithCheckpointBytes = engine.WithCheckpointBytes
	// WithReadOnly rejects every mutation with ErrReadOnly.
	WithReadOnly = engine.WithReadOnly
)

// The error taxonomy: every error the engine returns wraps one of
// these sentinels, so callers branch with errors.Is/As instead of
// matching message strings. See docs/api.md for the full table.
var (
	ErrNotFound     = engine.ErrNotFound
	ErrExists       = engine.ErrExists
	ErrTypeMismatch = engine.ErrTypeMismatch
	ErrTxDone       = engine.ErrTxDone
	ErrTxConflict   = engine.ErrTxConflict
	ErrReadOnly     = engine.ErrReadOnly
	ErrClosed       = engine.ErrClosed
	ErrCorrupt      = engine.ErrCorrupt
	ErrMispaired    = engine.ErrMispaired
	ErrFailed       = engine.ErrFailed
)

// NewDatabase creates an empty database held in memory: the engine
// Open returns, its paged file and log kept in memory instead of on
// disk (see docs/api.md).
func NewDatabase() *Database { return engine.New() }

// Open opens (or creates) a disk-backed database in the single paged
// file at path: relations live in heap chains behind a buffer pool,
// every canonical-form update is written through under its
// transaction and group-committed as one WAL batch, and opening a
// crashed file replays its log (docs/recovery.md). Close it to
// checkpoint. Options tune the pool, the checkpoint policy, and the
// access mode — see docs/api.md and docs/storage.md.
func Open(path string, opts ...Option) (*Database, error) { return engine.Open(path, opts...) }

// Tx is a multi-statement transaction handle: Insert, InsertMany,
// Delete, Create, Drop, ReadRelation and Query statements pool under
// one storage transaction; Commit makes them durable as ONE
// group-committed WAL batch (one fsync) and Rollback discards them,
// returning the database to its pre-Begin state. After either, every
// method returns ErrTxDone. See docs/api.md.
type Tx struct {
	*engine.Tx
}

// Begin starts a multi-statement transaction on db. The context
// governs the transaction's lifetime: statements fail once it is
// cancelled, and relation scans check it at page-fetch granularity.
func Begin(ctx context.Context, db *Database) (*Tx, error) {
	tx, err := db.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Tx{Tx: tx}, nil
}

// Query parses and executes one NF² query-language statement inside
// the transaction: DML statements pool under it, and query statements
// (including STATS and VALIDATE) see its uncommitted writes. The
// session-scoped statements BEGIN/COMMIT/ROLLBACK are rejected — use
// the handle's Commit/Rollback, or a Session.
func (tx *Tx) Query(ctx context.Context, stmtText string) (Result, error) {
	return query.ExecOn(ctx, tx.Tx, stmtText)
}

// LoadDatabase copies a paged database file saved with Database.Save
// into a new in-memory database (no live file attachment).
func LoadDatabase(path string) (*Database, error) { return engine.Load(path) }

// NewSession creates a query-language session over a fresh in-memory
// database (NewDatabase).
func NewSession() *Session { return query.NewSession() }

// NewSessionOn creates a query-language session over an existing
// database (for example one opened with Open). BEGIN/COMMIT/ROLLBACK
// statements manage a transaction on the session.
func NewSessionOn(db *Database) *Session { return query.NewSessionOn(db) }

// MustSchema builds an untyped schema from attribute names; it panics
// on duplicates.
func MustSchema(names ...string) *Schema { return schema.MustOf(names...) }

// NewFD builds a functional dependency from attribute names.
func NewFD(lhs, rhs []string) FD { return dep.NewFD(lhs, rhs) }

// NewMVD builds a multivalued dependency from attribute names.
func NewMVD(lhs, rhs []string) MVD { return dep.NewMVD(lhs, rhs) }

// Row builds a flat tuple from literals parsed with the value syntax
// (bare identifiers are strings; numbers, true/false, quoted strings
// as usual).
func Row(lits ...string) Flat {
	out := make(Flat, len(lits))
	for i, l := range lits {
		out[i] = value.MustParse(l)
	}
	return out
}

// StringRow builds a flat tuple of string atoms without literal
// parsing.
func StringRow(ss ...string) Flat { return tuple.FlatOfStrings(ss...) }

// FromFlats builds a 1NF relation from flat tuples.
func FromFlats(s *Schema, flats []Flat) (*Relation, error) {
	return core.FromFlats(s, flats)
}

// PermOf builds a nest order from attribute names.
func PermOf(s *Schema, names ...string) (Permutation, error) {
	return schema.PermOf(s, names...)
}

// SuggestOrder derives a nest order from dependencies (Section 3.4:
// dependents first, determinants last).
func SuggestOrder(s *Schema, fds []FD, mvds []MVD) Permutation {
	return engine.SuggestOrder(s, fds, mvds)
}

// RenderTable prints a relation as an aligned table in the paper's
// display style.
func RenderTable(r *Relation) string { return query.RenderTable(r) }

// Predicate constructors for algebra-level selections.
var (
	// Contains tests set membership of a constant.
	Contains = algebra.Contains
	// Cmp compares a component against a constant (Any semantics).
	Cmp = algebra.Cmp
	// Card tests a component's cardinality.
	Card = algebra.Card
	// And, Or, Not combine predicates; True matches everything.
	And  = algebra.And
	Or   = algebra.Or
	Not  = algebra.Not
	True = algebra.True
)

// Comparison operators for Cmp/Card.
const (
	EQ = algebra.EQ
	NE = algebra.NE
	LT = algebra.LT
	LE = algebra.LE
	GT = algebra.GT
	GE = algebra.GE
)

// Select, Project, NaturalJoin, Nest and Unnest expose the nested
// algebra on relations.
var (
	Select      = algebra.Select
	SelectFlat  = algebra.SelectFlat
	Project     = algebra.Project
	ProjectFlat = algebra.ProjectFlat
	NaturalJoin = algebra.NaturalJoin
	Union       = algebra.Union
	Difference  = algebra.Difference
	Nest        = algebra.Nest
	Unnest      = algebra.Unnest
)
