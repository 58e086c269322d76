package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// Result is the outcome of executing one statement: either a relation
// (query statements) or a status message (DDL/DML statements).
type Result struct {
	Relation *core.Relation
	Message  string
}

// String renders the result for a console.
func (r Result) String() string {
	if r.Relation != nil {
		return RenderTable(r.Relation)
	}
	return r.Message
}

// Execer is the statement target the executor runs DDL/DML/query
// statements against. Both *engine.Database (every statement
// autocommits) and *engine.Tx (statements pool under the transaction
// until Commit) implement it. The read methods inherit each target's
// concurrency contract: through a Database, ReadRelation serves a
// latch-free MVCC snapshot of the last committed state (docs/mvcc.md),
// so queries outside a transaction never wait on writers; through a
// Tx, reads stay on the latched path and see the transaction's own
// uncommitted statements.
type Execer interface {
	Create(def engine.RelationDef) error
	Drop(name string) error
	Insert(name string, f tuple.Flat) (bool, error)
	Delete(name string, f tuple.Flat) (bool, error)
	ReadRelation(ctx context.Context, name string) (*core.Relation, error)
	Def(name string) (engine.RelationDef, error)
	Stats(name string) (engine.RelStats, error)
	ValidateDeps(name string) ([]engine.Violation, error)
	// Index access paths (see internal/query/plan.go). Every relation
	// has them; IndexInfo never fails on an existing one.
	IndexInfo(name string) (engine.IndexInfo, error)
	LookupFixed(name string, a value.Atom) (*core.Relation, error)
	ScanFixedRange(name string, lo, hi *engine.Bound) (*core.Relation, int, error)
}

var (
	_ Execer = (*engine.Database)(nil)
	_ Execer = (*engine.Tx)(nil)
)

// Session executes statements against a database. BEGIN opens a
// transaction on the session: every following statement — including
// STATS and VALIDATE — runs inside it and sees its uncommitted writes,
// until COMMIT makes them durable as one group-committed batch or
// ROLLBACK discards them.
type Session struct {
	DB *engine.Database
	tx *engine.Tx
}

// NewSession creates a session over a fresh in-memory database
// (engine.New).
func NewSession() *Session { return &Session{DB: engine.New()} }

// NewSessionOn creates a session over an existing database (for
// example one opened with engine.Open).
func NewSessionOn(db *engine.Database) *Session { return &Session{DB: db} }

// InTx reports whether the session has an open transaction.
func (s *Session) InTx() bool { return s.tx != nil }

// Close rolls back the session's open transaction, if any.
func (s *Session) Close() error {
	if s.tx == nil {
		return nil
	}
	tx := s.tx
	s.tx = nil
	return tx.Rollback()
}

// target is the Execer the next statement runs against.
func (s *Session) target() Execer {
	if s.tx != nil {
		return s.tx
	}
	return s.DB
}

// Exec parses and executes one statement.
func (s *Session) Exec(stmtText string) (Result, error) {
	return s.ExecContext(context.Background(), stmtText)
}

// ExecContext parses and executes one statement under ctx: relation
// scans behind SELECT/SHOW/NEST/UNNEST/JOIN check it at page-fetch
// granularity, so cancelling stops a long scan from touching the
// buffer pool.
func (s *Session) ExecContext(ctx context.Context, stmtText string) (Result, error) {
	st, err := Parse(stmtText)
	if err != nil {
		return Result{}, err
	}
	return s.ExecStmtContext(ctx, st)
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(st Stmt) (Result, error) {
	return s.ExecStmtContext(context.Background(), st)
}

// ExecStmtContext executes a parsed statement under ctx.
func (s *Session) ExecStmtContext(ctx context.Context, st Stmt) (Result, error) {
	switch st.(type) {
	case BeginStmt:
		if s.tx != nil {
			return Result{}, fmt.Errorf("query: transaction already open (COMMIT or ROLLBACK first)")
		}
		tx, err := s.DB.Begin(ctx)
		if err != nil {
			return Result{}, err
		}
		s.tx = tx
		return Result{Message: "begun"}, nil
	case CommitStmt:
		if s.tx == nil {
			return Result{}, fmt.Errorf("query: no open transaction")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Commit(); err != nil {
			return Result{}, err
		}
		return Result{Message: "committed"}, nil
	case RollbackStmt:
		if s.tx == nil {
			return Result{}, fmt.Errorf("query: no open transaction")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Rollback(); err != nil {
			return Result{}, err
		}
		return Result{Message: "rolled back"}, nil
	}
	return ExecStmtOn(ctx, s.target(), st)
}

// ExecOn parses and executes one statement directly against a target —
// the facade's Tx.Query uses it to run query-language statements
// inside an explicit transaction. The session-scoped statements
// BEGIN/COMMIT/ROLLBACK are rejected; use a Session or the Tx handle's
// own Commit/Rollback.
func ExecOn(ctx context.Context, target Execer, stmtText string) (Result, error) {
	st, err := Parse(stmtText)
	if err != nil {
		return Result{}, err
	}
	return ExecStmtOn(ctx, target, st)
}

// ExecStmtOn executes a parsed DDL/DML/query statement against target.
func ExecStmtOn(ctx context.Context, target Execer, st Stmt) (Result, error) {
	relation := func(name string) (*core.Relation, error) {
		return target.ReadRelation(ctx, name)
	}
	switch st := st.(type) {
	case CreateStmt:
		return execCreate(target, st)
	case DropStmt:
		if err := target.Drop(st.Name); err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("dropped %s", st.Name)}, nil
	case InsertStmt:
		n := 0
		for _, row := range st.Rows {
			ch, err := target.Insert(st.Name, tuple.Flat(row))
			if err != nil {
				return Result{}, err
			}
			if ch {
				n++
			}
		}
		return Result{Message: fmt.Sprintf("inserted %d tuple(s) into %s", n, st.Name)}, nil
	case DeleteStmt:
		n := 0
		for _, row := range st.Rows {
			ch, err := target.Delete(st.Name, tuple.Flat(row))
			if err != nil {
				return Result{}, err
			}
			if ch {
				n++
			}
		}
		return Result{Message: fmt.Sprintf("deleted %d tuple(s) from %s", n, st.Name)}, nil
	case SelectStmt:
		return execSelect(ctx, target, st)
	case UpdateStmt:
		return execUpdate(ctx, target, st)
	case ExplainStmt:
		return execExplain(target, st)
	case NestStmt:
		rel, err := relation(st.Name)
		if err != nil {
			return Result{}, err
		}
		out, err := algebra.Nest(rel, st.Attr)
		if err != nil {
			return Result{}, err
		}
		return Result{Relation: out}, nil
	case UnnestStmt:
		rel, err := relation(st.Name)
		if err != nil {
			return Result{}, err
		}
		out, err := algebra.Unnest(rel, st.Attr)
		if err != nil {
			return Result{}, err
		}
		return Result{Relation: out}, nil
	case JoinStmt:
		l, err := relation(st.Left)
		if err != nil {
			return Result{}, err
		}
		r, err := relation(st.Right)
		if err != nil {
			return Result{}, err
		}
		// join result schema: left ++ right-only
		shared := 0
		for _, n := range r.Schema().Names() {
			if l.Schema().Has(n) {
				shared++
			}
		}
		deg := l.Schema().Degree() + r.Schema().Degree() - shared
		out, err := algebra.NaturalJoin(l, r, schema.IdentityPerm(deg))
		if err != nil {
			return Result{}, err
		}
		return Result{Relation: out}, nil
	case ShowStmt:
		rel, err := relation(st.Name)
		if err != nil {
			return Result{}, err
		}
		return Result{Relation: rel}, nil
	case StatsStmt:
		rs, err := target.Stats(st.Name)
		if err != nil {
			return Result{}, err
		}
		msg := fmt.Sprintf(
			"%s: %d NFR tuple(s) covering %d flat tuple(s) (compression %.2fx); fixed on %v; ops: %d compositions, %d decompositions, %d scans; index pages: btree inner=%d leaf=%d",
			rs.Name, rs.NFRTuples, rs.FlatTuples, rs.Compression, rs.FixedOn,
			rs.Ops.Compositions, rs.Ops.Decompositions, rs.Ops.CandidateScans,
			rs.IndexPages.BTreeInner, rs.IndexPages.BTreeLeaf)
		return Result{Message: msg}, nil
	case ValidateStmt:
		vs, err := target.ValidateDeps(st.Name)
		if err != nil {
			return Result{}, err
		}
		if len(vs) == 0 {
			return Result{Message: fmt.Sprintf("%s: all declared dependencies hold", st.Name)}, nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %d violation(s):", st.Name, len(vs))
		for _, v := range vs {
			fmt.Fprintf(&b, "\n  %s", v.Dep)
		}
		return Result{Message: b.String()}, nil
	default:
		return Result{}, fmt.Errorf("query: unhandled statement %T", st)
	}
}

func execCreate(target Execer, st CreateStmt) (Result, error) {
	attrs := make([]schema.Attribute, len(st.Attrs))
	for i, a := range st.Attrs {
		attrs[i] = schema.Attribute{Name: a.Name, Kind: a.Kind}
	}
	sch, err := schema.New(attrs...)
	if err != nil {
		return Result{}, err
	}
	def := engine.RelationDef{Name: st.Name, Schema: sch}
	if st.Order != nil {
		p, err := schema.PermOf(sch, st.Order...)
		if err != nil {
			return Result{}, err
		}
		def.Order = p
	}
	for _, f := range st.FDs {
		def.FDs = append(def.FDs, dep.NewFD(f[0], f[1]))
	}
	for _, m := range st.MVDs {
		def.MVDs = append(def.MVDs, dep.NewMVD(m[0], m[1]))
	}
	if err := target.Create(def); err != nil {
		return Result{}, err
	}
	rdef, _ := target.Def(st.Name)
	return Result{Message: fmt.Sprintf("created %s%v with nest order %v",
		st.Name, sch, rdef.Order.Names(sch))}, nil
}

// validatePred resolves the predicate's attributes eagerly against sch
// so errors surface even on empty relations: evaluate once against a
// probe tuple of nulls.
func validatePred(sch *schema.Schema, pred algebra.Pred) error {
	probe := make([]vset.Set, sch.Degree())
	for i := range probe {
		probe[i] = vset.Single(value.NullAtom())
	}
	_, err := pred.Eval(sch, tuple.MustNew(probe...))
	return err
}

func execSelect(ctx context.Context, target Execer, st SelectStmt) (Result, error) {
	def, err := target.Def(st.Name)
	if err != nil {
		return Result{}, err
	}
	pred := st.Where
	if pred == nil {
		pred = algebra.True()
	}
	if err := validatePred(def.Schema, pred); err != nil {
		return Result{}, err
	}
	pl, err := planRead(target, st.Name, st.Where, st.Flat)
	if err != nil {
		return Result{}, err
	}
	rel, _, err := pl.fetch(ctx, target)
	if err != nil {
		return Result{}, err
	}

	var filtered *core.Relation
	fixed := def.Order[len(def.Order)-1]
	switch {
	case st.Flat && readsOnly(pred, def.Schema.Attr(fixed).Name):
		filtered, err = restrictFixed(rel, pred, fixed)
	case st.Flat:
		filtered, err = algebra.SelectFlat(rel, pred, def.Order)
	default:
		filtered, err = algebra.Select(rel, pred)
	}
	if err != nil {
		return Result{}, err
	}
	out := filtered
	if st.Cols != nil {
		if st.Flat {
			out, err = algebra.ProjectFlat(filtered, schema.IdentityPerm(len(st.Cols)), st.Cols...)
		} else {
			out, err = algebra.Project(filtered, st.Cols...)
		}
		if err != nil {
			return Result{}, err
		}
	}
	if st.OrderBy != "" {
		out, err = sortByAttr(out, st.OrderBy, st.Desc)
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Relation: out}, nil
}

// readsOnly reports whether pred reads no attribute but attr.
func readsOnly(pred algebra.Pred, attr string) bool {
	attrs, ok := algebra.Attrs(pred)
	return ok && !slices.ContainsFunc(attrs, func(a string) bool { return a != attr })
}

// restrictFixed is SelectFlat(rel, pred, P) for a pred that reads only
// the fixed attribute P[n-1] of V_P tuples, which every Execer read
// returns: each tuple keeps the fixed atoms pred accepts, and one left
// with none goes (docs/queries.md has why). rel itself is the answer
// when every tuple survives whole.
func restrictFixed(rel *core.Relation, pred algebra.Pred, fixed int) (*core.Relation, error) {
	var out *core.Relation // nil while every tuple survives whole
	var kept []value.Atom
	for i := 0; i < rel.Len(); i++ {
		t := rel.Tuple(i)
		atoms := t.Set(fixed).Atoms()
		kept = kept[:0]
		for _, a := range atoms {
			flat := t // pred reads only the fixed component, and a singleton one is a's
			if len(atoms) > 1 {
				flat = t.WithSet(fixed, vset.Single(a))
			}
			if ok, err := pred.Eval(rel.Schema(), flat); err != nil {
				return nil, err
			} else if ok {
				kept = append(kept, a)
			}
		}
		if out == nil && len(kept) < len(atoms) {
			out = core.MustFromTuples(rel.Schema(), rel.Tuples()[:i])
		}
		switch {
		case out == nil || len(kept) == 0:
		case len(kept) == len(atoms):
			out.Add(t)
		default:
			out.Add(t.WithSet(fixed, vset.FromSorted(slices.Clone(kept))))
		}
	}
	if out == nil {
		return rel, nil
	}
	return out, nil
}

// sortByAttr orders the relation's tuples by the named component:
// atom-wise lexicographic over the (canonically sorted) set, shorter
// prefix first; desc reverses. The sort is stable, so ties keep
// storage order.
func sortByAttr(rel *core.Relation, attr string, desc bool) (*core.Relation, error) {
	i := rel.Schema().Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("query: order by unknown attribute %q", attr)
	}
	ts := rel.Tuples()
	sort.SliceStable(ts, func(a, b int) bool {
		c := compareSets(ts[a].Set(i), ts[b].Set(i))
		if desc {
			return c > 0
		}
		return c < 0
	})
	out := core.NewRelation(rel.Schema())
	for _, t := range ts {
		out.Add(t)
	}
	return out, nil
}

func compareSets(a, b vset.Set) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if c := value.Compare(a.At(i), b.At(i)); c != 0 {
			return c
		}
	}
	return a.Len() - b.Len()
}

// execUpdate rewrites the flat tuples matching WHERE: every matching
// flat has its SET attributes replaced, realized as deletes of the old
// flats followed by inserts of the new ones (each rippling through
// canonical maintenance). The read side goes through the planner with
// flat-level semantics, so an indexed conjunct on the fixed attribute
// turns a full-relation UPDATE into an index-driven one.
func execUpdate(ctx context.Context, target Execer, st UpdateStmt) (Result, error) {
	def, err := target.Def(st.Name)
	if err != nil {
		return Result{}, err
	}
	sch := def.Schema
	pred := st.Where
	if pred == nil {
		pred = algebra.True()
	}
	if err := validatePred(sch, pred); err != nil {
		return Result{}, err
	}
	setIdx := make([]int, len(st.Set))
	for i, c := range st.Set {
		j := sch.Index(c.Attr)
		if j < 0 {
			return Result{}, fmt.Errorf("query: update set unknown attribute %q", c.Attr)
		}
		setIdx[i] = j
	}
	pl, err := planRead(target, st.Name, st.Where, true)
	if err != nil {
		return Result{}, err
	}
	rel, _, err := pl.fetch(ctx, target)
	if err != nil {
		return Result{}, err
	}
	// Collect the rewrites first: the fetch is a superset at the flat
	// level, and each flat is judged by the full predicate.
	var olds, news []tuple.Flat
	for _, f := range rel.Expand() {
		match, err := pred.Eval(sch, tuple.FromFlat(f))
		if err != nil {
			return Result{}, err
		}
		if !match {
			continue
		}
		nf := f.Clone()
		for i, c := range st.Set {
			nf[setIdx[i]] = c.Val
		}
		if nf.Equal(f) {
			continue
		}
		olds = append(olds, f)
		news = append(news, nf)
	}
	// All deletes before all inserts, so a rewrite chain (a -> b while
	// b -> c) cannot delete a flat another rewrite just produced.
	for _, f := range olds {
		if _, err := target.Delete(st.Name, f); err != nil {
			return Result{}, err
		}
	}
	for _, f := range news {
		if _, err := target.Insert(st.Name, f); err != nil {
			return Result{}, err
		}
	}
	return Result{Message: fmt.Sprintf("updated %d flat tuple(s) in %s", len(olds), st.Name)}, nil
}

// execExplain plans the inner statement without executing it.
func execExplain(target Execer, st ExplainStmt) (Result, error) {
	var pl Plan
	var err error
	switch in := st.Inner.(type) {
	case SelectStmt:
		pl, err = planRead(target, in.Name, in.Where, in.Flat)
	case UpdateStmt:
		pl, err = planRead(target, in.Name, in.Where, true)
	default:
		return Result{}, fmt.Errorf("query: explain supports select and update, got %T", st.Inner)
	}
	if err != nil {
		return Result{}, err
	}
	if pl.Residual != nil {
		// surface attribute-resolution errors exactly like execution
		def, err := target.Def(pl.Relation)
		if err != nil {
			return Result{}, err
		}
		if err := validatePred(def.Schema, pl.Residual); err != nil {
			return Result{}, err
		}
	}
	return Result{Message: pl.Explain()}, nil
}

// RenderTable prints a relation as an aligned text table, one NFR
// tuple per row, set members comma-separated — the display format of
// the paper's figures.
func RenderTable(r *core.Relation) string {
	s := r.Schema()
	n := s.Degree()
	widths := make([]int, n)
	for i := 0; i < n; i++ {
		widths[i] = len(s.Attr(i).Name)
	}
	rows := make([][]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		row := make([]string, n)
		for j := 0; j < n; j++ {
			row[j] = t.Set(j).String()
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		rows[i] = row
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for j, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[j], c)
		}
		b.WriteByte('\n')
	}
	sep := func() {
		b.WriteString("+")
		for j := 0; j < n; j++ {
			b.WriteString(strings.Repeat("-", widths[j]+2))
			b.WriteString("+")
		}
		b.WriteByte('\n')
	}
	sep()
	writeRow(s.Names())
	sep()
	for _, row := range rows {
		writeRow(row)
	}
	sep()
	fmt.Fprintf(&b, "%d tuple(s), %d flat tuple(s)", r.Len(), r.ExpansionSize())
	return b.String()
}

// Atoms is a helper to build literal rows for tests and examples.
func Atoms(lits ...string) []value.Atom {
	out := make([]value.Atom, len(lits))
	for i, l := range lits {
		out[i] = value.MustParse(l)
	}
	return out
}
