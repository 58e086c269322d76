package query

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// plainScan is an Execer whose heap scans take no record tests: every
// statement runs through it as it would with no record filter, the
// reference the filter is held to.
type plainScan struct{ Execer }

func (p plainScan) ReadFiltered(ctx context.Context, name string, _ []encoding.AtomTest) (*core.Relation, error) {
	return p.Execer.ReadFiltered(ctx, name, nil)
}

// filterAtoms is FuzzMatchTuple's pool (internal/encoding): Int 1
// beside String "1", both float zeros, NaN, null, true beside "true",
// the empty string and a string whose length takes two varint bytes.
// Predicates also compare with a 5 000-byte string, which no stored
// tuple can hold.
var filterAtoms = []value.Atom{
	value.NewInt(1), value.NewString("1"), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.NaN()), value.NullAtom(), value.NewBool(true), value.NewString("true"),
	value.NewInt(2), value.NewString(""), value.NewString(strings.Repeat("y", 200)),
}

// randomWhere draws an AND of one to three predicates mixing CONTAINS,
// the six comparisons under Any and All, AND, OR, NOT, CARD and
// attribute-vs-attribute comparisons.
func randomWhere(rng *rand.Rand, attrs []string) algebra.Pred {
	atom := func() value.Atom {
		if rng.Intn(20) == 0 {
			return value.NewString(strings.Repeat("z", 5000))
		}
		return filterAtoms[rng.Intn(len(filterAtoms))]
	}
	attr := func() string { return attrs[rng.Intn(len(attrs))] }
	op := func() algebra.CmpOp { return algebra.CmpOp(rng.Intn(6)) }
	var pred func(depth int) algebra.Pred
	pred = func(depth int) algebra.Pred {
		switch k := rng.Intn(12); {
		case depth > 0 && k == 0:
			return algebra.And(pred(depth-1), pred(depth-1))
		case depth > 0 && k == 1:
			return algebra.Or(pred(depth-1), pred(depth-1))
		case depth > 0 && k == 2:
			return algebra.Not(pred(depth - 1))
		case k == 3:
			return algebra.Card(attr(), op(), 1+rng.Intn(2))
		case k == 4:
			return algebra.CmpAttrs(attr(), op(), attr())
		case k < 7:
			return algebra.Contains(attr(), atom())
		case k < 10:
			return algebra.Cmp(attr(), op(), atom())
		default:
			return algebra.CmpAll(attr(), op(), atom())
		}
	}
	ps := make([]algebra.Pred, 1+rng.Intn(3))
	for i := range ps {
		ps[i] = pred(2)
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return algebra.And(ps...)
}

// sameRelation reports whether two answers hold the same tuples in the
// same order.
func sameRelation(a, b *core.Relation) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Tuple(i).Equal(b.Tuple(i)) {
			return false
		}
	}
	return true
}

// TestRecordFilterEquivalence holds heap scans with record tests to
// plain scans: random SELECT, SELECT FLAT and UPDATE statements over
// the hostile pool run on one database as planned and on an identical
// one through plainScan, and every answer, message and resulting
// relation must agree tuple for tuple, in order. It runs on a
// Database, inside a Tx, and on a 4-shard relation, whose plans must
// carry no filter.
func TestRecordFilterEquivalence(t *testing.T) {
	sch := schema.MustOf("A", "B", "C")
	attrs := sch.Names()
	rng := rand.New(rand.NewSource(46))
	var flats []tuple.Flat
	for i := 0; i < 60; i++ {
		flats = append(flats, tuple.Flat{
			filterAtoms[rng.Intn(len(filterAtoms))],
			filterAtoms[rng.Intn(len(filterAtoms))],
			filterAtoms[rng.Intn(len(filterAtoms))],
		})
	}
	open := func() *engine.Database {
		db := engine.New()
		t.Cleanup(func() { db.Close() })
		for _, def := range []engine.RelationDef{{Name: "R1", Schema: sch}, {Name: "R4", Schema: sch, Shards: 4}} {
			if err := db.Create(def); err != nil {
				t.Fatal(err)
			}
			if _, err := db.InsertMany(def.Name, flats); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	ctx := context.Background()
	for _, inTx := range []bool{false, true} {
		filtered, plain := open(), open()
		var ft, pt Execer = filtered, plain
		if inTx {
			ftx, err := filtered.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer ftx.Rollback()
			ptx, err := plain.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer ptx.Rollback()
			ft, pt = ftx, ptx
		}
		pt = plainScan{pt}
		filters := 0
		for step := 0; step < 300; step++ {
			rel := "R1"
			if step%4 == 3 {
				rel = "R4"
			}
			where := randomWhere(rng, attrs)
			var st Stmt
			flat := true
			switch rng.Intn(3) {
			case 0:
				st, flat = SelectStmt{Name: rel, Where: where}, false
			case 1:
				st = SelectStmt{Name: rel, Where: where, Flat: true}
			default:
				st = UpdateStmt{Name: rel, Where: where, Set: []SetClause{{Attr: attrs[rng.Intn(3)], Val: filterAtoms[rng.Intn(len(filterAtoms))]}}}
			}
			pl, err := planRead(ft, rel, where, flat)
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.Filter) > 0 {
				filters++
				if rel == "R4" {
					t.Fatalf("a 4-shard relation's plan filters on %v", pl.Filter)
				}
			}
			got, gerr := ExecStmtOn(ctx, ft, st)
			want, werr := ExecStmtOn(ctx, pt, st)
			if (gerr == nil) != (werr == nil) || got.Message != want.Message || !sameRelation(got.Relation, want.Relation) {
				t.Fatalf("inTx=%v, %s WHERE %s:\nfiltered (%v):\n%s\nplain (%v):\n%s", inTx, rel, where, gerr, got, werr, want)
			}
			if _, ok := st.(UpdateStmt); ok {
				got, gerr = ExecStmtOn(ctx, ft, ShowStmt{Name: rel})
				want, werr = ExecStmtOn(ctx, pt, ShowStmt{Name: rel})
				if gerr != nil || werr != nil || !sameRelation(got.Relation, want.Relation) {
					t.Fatalf("inTx=%v, after UPDATE %s WHERE %s:\nfiltered (%v):\n%s\nplain (%v):\n%s", inTx, rel, where, gerr, got, werr, want)
				}
			}
		}
		if filters < 75 {
			t.Errorf("inTx=%v: %d of 300 plans filter records, want ≥ 75", inTx, filters)
		}
	}
}
