package query

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
)

// This file is the planner: it inspects a statement's WHERE clause and
// the target relation's physical access paths (engine.IndexInfo) and
// picks between a heap scan, a B+tree equality probe (index-point), and
// a B+tree range scan (index-range). The full predicate is ALWAYS re-applied to whatever the
// chosen access path fetches, so the only soundness obligation is that
// the fetch is a superset of the matching tuples. That obligation is
// subtle on set-valued attributes:
//
//   - A point conjunct (attr = v, attr CONTAINS v, with either
//     quantifier) matches only tuples whose fixed component holds v —
//     exactly what the equality probe fetches. Always usable.
//   - A single-sided range conjunct (attr >= x, Any) matches only
//     tuples with SOME fixed atom >= x — exactly the B+tree fetch.
//     Always usable; same for All (all atoms >= x implies some is).
//   - A two-sided window is the trap: `attr >= x AND attr < y` under
//     Any semantics can match a tuple via two DIFFERENT atoms (one
//     >= x, another < y) with NO single atom inside [x, y), which a
//     window fetch would miss. The window fetch is only a superset
//     when at most one side is Any-quantified, or at the flat level
//     (SELECT FLAT / UPDATE), where each flat has one atom that must
//     satisfy both sides. Otherwise the planner keeps the lower bound
//     for the fetch and demotes the upper bound to residual-only.
//   - Index fetches return stored (shard-canonical) tuples, which on
//     a K-sharded relation are finer-grained than the global canonical
//     form; tuple-level predicates could then evaluate differently.
//     Index paths are therefore restricted to single-shard relations.
//
// NE, OR, NOT, CARD and attr-vs-attr conjuncts are never indexable.

// AccessKind is the chosen access path.
type AccessKind uint8

const (
	HeapScan AccessKind = iota
	IndexPoint
	IndexRange
)

func (k AccessKind) String() string {
	switch k {
	case IndexPoint:
		return "index-point"
	case IndexRange:
		return "index-range"
	default:
		return "heap-scan"
	}
}

// Plan is the planner's decision for one statement's read.
type Plan struct {
	Relation string
	Access   AccessKind
	Attr     string        // indexed attribute (index paths)
	Point    *value.Atom   // probe atom (IndexPoint)
	Lo, Hi   *engine.Bound // scan window (IndexRange; nil = unbounded)
	Reason   string        // one-line why (shown by EXPLAIN)
	Note     string        // soundness demotion note, if any
	Residual algebra.Pred  // full predicate, re-applied to the fetch
}

// planRead picks the access path for reading relation name filtered by
// where; flat reports flat-level predicate semantics (SELECT FLAT and
// UPDATE), which admit two-sided Any windows.
func planRead(target Execer, name string, where algebra.Pred, flat bool) (Plan, error) {
	pl := Plan{Relation: name, Access: HeapScan, Residual: where}
	info, err := target.IndexInfo(name)
	if err != nil {
		return Plan{}, err
	}
	switch {
	case info.Shards != 1:
		pl.Reason = fmt.Sprintf("relation is hash-sharded %d ways; stored tuples are shard-canonical", info.Shards)
		return pl, nil
	case where == nil:
		pl.Reason = "no predicate"
		return pl, nil
	}

	var point *value.Atom
	var lo, hi *engine.Bound
	loAny, hiAny := false, false
	for _, c := range algebra.Conjuncts(where) {
		if attr, v, ok := algebra.AsContains(c); ok && attr == info.FixedAttr {
			v := v
			point = &v
			continue
		}
		cmp, ok := algebra.AsCmp(c)
		if !ok || cmp.Attr != info.FixedAttr {
			continue
		}
		anyQ := cmp.Quant == algebra.Any
		switch cmp.Op {
		case algebra.EQ:
			v := cmp.Val
			point = &v
		case algebra.GE, algebra.GT:
			b := &engine.Bound{Atom: cmp.Val, Incl: cmp.Op == algebra.GE}
			if lo == nil || tighterLo(b, lo) {
				lo, loAny = b, anyQ
			}
		case algebra.LE, algebra.LT:
			b := &engine.Bound{Atom: cmp.Val, Incl: cmp.Op == algebra.LE}
			if hi == nil || tighterHi(b, hi) {
				hi, hiAny = b, anyQ
			}
		}
	}

	switch {
	case point != nil:
		pl.Access = IndexPoint
		pl.Attr = info.FixedAttr
		pl.Point = point
		pl.Reason = fmt.Sprintf("equality conjunct on indexed attribute %s", info.FixedAttr)
	case lo != nil || hi != nil:
		if lo != nil && hi != nil && loAny && hiAny && !flat {
			// Any/Any window at tuple level: fetch on the lower bound
			// only; the upper bound still filters via the residual.
			hi = nil
			pl.Note = "upper bound demoted to residual: a set-valued tuple can match both sides via different atoms"
		}
		pl.Access = IndexRange
		pl.Attr = info.FixedAttr
		pl.Lo, pl.Hi = lo, hi
		pl.Reason = fmt.Sprintf("range conjunct(s) on indexed attribute %s", info.FixedAttr)
	default:
		pl.Reason = fmt.Sprintf("no usable conjunct on indexed attribute %s", info.FixedAttr)
	}
	return pl, nil
}

// tighterLo reports whether a is a tighter (larger) lower bound than b.
func tighterLo(a, b *engine.Bound) bool {
	c := value.Compare(a.Atom, b.Atom)
	return c > 0 || (c == 0 && !a.Incl && b.Incl)
}

// tighterHi reports whether a is a tighter (smaller) upper bound than b.
func tighterHi(a, b *engine.Bound) bool {
	c := value.Compare(a.Atom, b.Atom)
	return c < 0 || (c == 0 && !a.Incl && b.Incl)
}

// fetch runs the plan's access path and returns the fetched relation
// plus the index pages read (0 for heap scans and point probes).
func (pl Plan) fetch(ctx context.Context, target Execer) (*core.Relation, int, error) {
	switch pl.Access {
	case IndexPoint:
		rel, err := target.LookupFixed(pl.Relation, *pl.Point)
		return rel, 0, err
	case IndexRange:
		return target.ScanFixedRange(pl.Relation, pl.Lo, pl.Hi)
	default:
		rel, err := target.ReadRelation(ctx, pl.Relation)
		return rel, 0, err
	}
}

// Explain renders the plan in the stable EXPLAIN format:
//
//	access: index-range (Student)
//	  range: ["s10" .. "s20")
//	  residual: Student >= "s10" and Student < "s20"
//	  reason: range conjunct(s) on indexed attribute Student
func (pl Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "access: %s", pl.Access)
	if pl.Access != HeapScan {
		fmt.Fprintf(&b, " (%s)", pl.Attr)
	}
	switch pl.Access {
	case IndexPoint:
		fmt.Fprintf(&b, "\n  probe: %s", algebra.LiteralString(*pl.Point))
	case IndexRange:
		fmt.Fprintf(&b, "\n  range: %s .. %s", boundString(pl.Lo, true), boundString(pl.Hi, false))
	}
	if pl.Residual != nil {
		fmt.Fprintf(&b, "\n  residual: %s", pl.Residual.String())
	}
	fmt.Fprintf(&b, "\n  reason: %s", pl.Reason)
	if pl.Note != "" {
		fmt.Fprintf(&b, "\n  note: %s", pl.Note)
	}
	return b.String()
}

func boundString(b *engine.Bound, low bool) string {
	if b == nil {
		return "unbounded"
	}
	lit := algebra.LiteralString(b.Atom)
	if low {
		if b.Incl {
			return "[" + lit
		}
		return "(" + lit
	}
	if b.Incl {
		return lit + "]"
	}
	return lit + ")"
}
