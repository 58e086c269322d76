package query

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// drawer turns fuzz input into choices; an exhausted input draws zeros.
type drawer []byte

func (d *drawer) next(n int) int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b) % n
}

// fuzzAtoms is small enough that tuples nest, and holds atoms that
// render alike but differ in kind.
var fuzzAtoms = []value.Atom{
	value.NewInt(0), value.NewInt(1), value.NewInt(2),
	value.NewString("1"), value.NewString("2"), value.NewString("x"),
	value.NewFloat(1), value.NewBool(true),
}

func (d *drawer) atom() value.Atom { return fuzzAtoms[d.next(len(fuzzAtoms))] }

// pred draws a predicate over attr alone, nesting connectives depth deep.
func (d *drawer) pred(attr string, depth int) algebra.Pred {
	kinds := 6
	if depth > 0 {
		kinds = 9
	}
	op := func() algebra.CmpOp { return algebra.CmpOp(d.next(6)) }
	switch d.next(kinds) {
	case 0:
		return algebra.Cmp(attr, op(), d.atom())
	case 1:
		return algebra.CmpAll(attr, op(), d.atom())
	case 2:
		return algebra.Contains(attr, d.atom())
	case 3:
		return algebra.Card(attr, op(), d.next(3))
	case 4:
		return algebra.CmpAttrs(attr, op(), attr)
	case 5:
		return algebra.True()
	case 6:
		return algebra.And(d.pred(attr, depth-1), d.pred(attr, depth-1))
	case 7:
		return algebra.Or(d.pred(attr, depth-1), d.pred(attr, depth-1))
	default:
		return algebra.Not(d.pred(attr, depth-1))
	}
}

// FuzzSelectFlatFixed holds the fixed-attribute restriction to the
// expand-and-re-nest reference: a relation drawn from the input is
// canonicalised under each of the six nest orders of (A, B, C), and a
// predicate drawn over the last-nested attribute must select from that
// V_P exactly the tuples CanonicalWhere does.
func FuzzSelectFlatFixed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{24, 1, 3, 0, 1, 4, 0, 2, 3, 1, 3, 0, 6, 0, 1, 7, 2, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 16+16*i)
		rng.Read(seed)
		f.Add(seed)
	}
	sch := schema.MustOf("A", "B", "C")
	f.Fuzz(func(t *testing.T, data []byte) {
		d := drawer(data)
		flats := make([]tuple.Flat, d.next(25))
		for i := range flats {
			flats[i] = tuple.Flat{d.atom(), d.atom(), d.atom()}
		}
		base := core.MustFromFlats(sch, flats)
		for _, order := range schema.AllPermutations(3) {
			canon, _ := base.CanonicalFromFlats(order)
			fixed := order[len(order)-1]
			pred := d.pred(sch.Attr(fixed).Name, 3)
			if !readsOnly(pred, sch.Attr(fixed).Name) {
				t.Fatalf("%v reads more than %s", pred, sch.Attr(fixed).Name)
			}
			got, err := restrictFixed(canon, pred, fixed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := canon.CanonicalWhere(order, func(t tuple.Tuple) (bool, error) { return pred.Eval(sch, t) })
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("order %v, where %v, on\n%s\nrestriction:\n%s\nreference:\n%s",
					order.Names(sch), pred, canon, got, want)
			}
		}
	})
}
