package algebra

import (
	"slices"

	"repro/internal/value"
)

// This file exposes the read-only predicate structure a query planner
// needs: the top-level conjunct list, the shape of the two conjunct
// forms an index can serve (attr-vs-constant comparison and set
// membership), and the attributes a predicate reads. Everything else
// (OR, NOT, CARD, attr-vs-attr) stays opaque — the planner treats those
// conjuncts as residual-only.

// Conjuncts flattens nested ANDs into the top-level conjunct list. A
// non-AND predicate is its own single conjunct; nil has none.
func Conjuncts(p Pred) []Pred {
	if p == nil {
		return nil
	}
	and, ok := p.(andPred)
	if !ok {
		return []Pred{p}
	}
	var out []Pred
	for _, q := range and.ps {
		out = append(out, Conjuncts(q)...)
	}
	return out
}

// AtomCmp is the planner view of an attr-vs-constant comparison
// conjunct.
type AtomCmp struct {
	Attr  string
	Op    CmpOp
	Val   value.Atom
	Quant Quantifier
}

// AsCmp reports whether p is an attr-vs-constant comparison and
// returns its parts.
func AsCmp(p Pred) (AtomCmp, bool) {
	c, ok := p.(cmpPred)
	if !ok {
		return AtomCmp{}, false
	}
	return AtomCmp{Attr: c.attr, Op: c.op, Val: c.val, Quant: c.quant}, true
}

// AsContains reports whether p is a set-membership test and returns
// its parts.
func AsContains(p Pred) (attr string, val value.Atom, ok bool) {
	c, isc := p.(containsPred)
	if !isc {
		return "", value.Atom{}, false
	}
	return c.attr, c.val, true
}

// Attrs lists the attributes p reads, sorted, each once; nil and True
// read none. ok is false when p holds a predicate built outside this
// package, whose reads cannot be seen.
func Attrs(p Pred) (attrs []string, ok bool) {
	var subs []Pred
	switch p := p.(type) {
	case nil, truePred:
	case cmpPred:
		attrs = []string{p.attr}
	case containsPred:
		attrs = []string{p.attr}
	case cardPred:
		attrs = []string{p.attr}
	case attrCmpPred:
		attrs = []string{p.left, p.right}
	case notPred:
		subs = []Pred{p.p}
	case andPred:
		subs = p.ps
	case orPred:
		subs = p.ps
	default:
		return nil, false
	}
	for _, q := range subs {
		more, ok := Attrs(q)
		if !ok {
			return nil, false
		}
		attrs = append(attrs, more...)
	}
	slices.Sort(attrs)
	return slices.Compact(attrs), true
}
