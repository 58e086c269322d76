package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/vset"
)

// The canonicalisation kernel behind Expand, ExpandRelation, Nest,
// Canonical, CanonicalFromFlats and CanonicalWhere, and its check,
// IsCanonicalFor. The only strings the kernel builds are one rendering
// per gathered atom and the result's keys; the check builds none.

// flatRows is a 1NF relation in rank form: n rows of deg ranks, sorted
// the way Flat.Key() strings sort and duplicate-free. atoms[c][k] is
// the atom of rank k in column c.
type flatRows struct {
	deg, n int
	atoms  [][]value.Atom
	cells  []uint32
}

func (fr flatRows) row(i int) []uint32 { return fr.cells[i*fr.deg : (i+1)*fr.deg] }

// rankColumn ranks the atoms of the tuples' c-th components by (Kind,
// String()), rendering each gathered atom once. ranks is in gather
// order: tuple by tuple, each set in its own order. Flat.Key() joins
// exactly these pairs with a separator below every byte a rendering can
// hold, so rows of such ranks compared left to right order as the keys
// do, and equal rows are equal keys.
func rankColumn(ts []tuple.Tuple, c int) (byRank []value.Atom, ranks []uint32) {
	type key struct {
		kind   value.Kind
		render string
	}
	type ref struct {
		key
		a  value.Atom
		id uint32
	}
	var refs []ref // the distinct atoms
	ids := make(map[key]uint32)
	for _, t := range ts {
		for _, a := range t.Set(c).Atoms() {
			k := key{a.K, a.String()}
			id, seen := ids[k]
			if !seen {
				id = uint32(len(refs))
				ids[k] = id
				refs = append(refs, ref{k, a, id})
			}
			ranks = append(ranks, id)
		}
	}
	slices.SortFunc(refs, func(x, y ref) int {
		return cmp.Or(cmp.Compare(x.kind, y.kind), strings.Compare(x.render, y.render))
	})
	byRank = make([]value.Atom, len(refs))
	rankOf := make([]uint32, len(refs))
	for k, r := range refs {
		byRank[k], rankOf[r.id] = r.a, uint32(k)
	}
	for j, id := range ranks {
		ranks[j] = rankOf[id]
	}
	return byRank, ranks
}

// expandRows builds the flat expansion of the tuples.
func expandRows(deg int, ts []tuple.Tuple) flatRows {
	all := flatRows{deg: deg, atoms: make([][]value.Atom, deg)}
	ranks := make([][]uint32, deg)
	for c := range ranks {
		all.atoms[c], ranks[c] = rankColumn(ts, c)
	}
	for _, t := range ts {
		all.n += t.ExpansionSize()
	}
	all.cells = make([]uint32, all.n*deg)
	at := 0
	for _, t := range ts {
		for k, size := 0, t.ExpansionSize(); k < size; k++ {
			row, q := all.row(at), k
			at++
			for c := deg - 1; c >= 0; c-- {
				n := t.Set(c).Len()
				row[c] = ranks[c][q%n]
				q /= n
			}
		}
		for c := range ranks {
			ranks[c] = ranks[c][t.Set(c).Len():]
		}
	}
	// copy the rows out in key order, dropping repeats
	fr := flatRows{deg: deg, atoms: all.atoms, cells: make([]uint32, 0, len(all.cells))}
	for _, r := range all.sorted() {
		if fr.n == 0 || !slices.Equal(all.row(int(r)), fr.row(fr.n-1)) {
			fr.cells = append(fr.cells, all.row(int(r))...)
			fr.n++
		}
	}
	return fr
}

// sorted returns the row numbers in the order of the rows, compared
// left to right: one stable counting sort per column, the last first.
func (fr flatRows) sorted() []int32 {
	idx, next := make([]int32, fr.n), make([]int32, fr.n)
	for r := range idx {
		idx[r] = int32(r)
	}
	for c := fr.deg - 1; c >= 0; c-- {
		start := make([]int32, len(fr.atoms[c])+1) // start[v]: where rank v's rows begin
		for r := 0; r < fr.n; r++ {
			start[fr.row(r)[c]+1]++
		}
		for v := 1; v < len(start); v++ {
			start[v] += start[v-1]
		}
		for _, r := range idx {
			v := fr.row(int(r))[c]
			next[start[v]] = r
			start[v]++
		}
		idx, next = next, idx
	}
	return idx
}

// flats returns the rows as flat tuples cut from one backing array.
func (fr flatRows) flats() []tuple.Flat {
	back := make([]value.Atom, len(fr.cells))
	out := make([]tuple.Flat, fr.n)
	for i := range out {
		f := back[i*fr.deg : (i+1)*fr.deg : (i+1)*fr.deg]
		for c, k := range fr.row(i) {
			f[c] = fr.atoms[c][k]
		}
		out[i] = f
	}
	return out
}

// tuples returns the rows as tuples of singleton sets, one set per
// distinct atom shared by every tuple that holds it.
func (fr flatRows) tuples() []tuple.Tuple {
	singles := make([][]vset.Set, fr.deg)
	for c, as := range fr.atoms {
		singles[c] = make([]vset.Set, len(as))
		for k, a := range as {
			singles[c][k] = vset.Single(a)
		}
	}
	out := make([]tuple.Tuple, fr.n)
	sets := make([]vset.Set, fr.deg)
	for i := range out {
		for c, k := range fr.row(i) {
			sets[c] = singles[c][k]
		}
		out[i] = tuple.MustNew(sets...)
	}
	return out
}

// nest is ν over attribute i on a duplicate-free tuple list: tuples
// that agree on every other component (HashExcept, AgreeExcept on a
// collision) form a group, groups keep the order of their first
// members, and a group's i-th components are unioned in one step. It
// returns the nested list (ts is left alone) and the composition count.
func nest(ts []tuple.Tuple, i int) ([]tuple.Tuple, int) {
	type group struct {
		first tuple.Tuple
		atoms []value.Atom // the later members' i-th components
		next  int          // next group with the same hash, -1 at the end
	}
	var groups []group
	heads := make(map[uint64]int, len(ts)) // hash -> 1 + the newest group with it
	for _, t := range ts {
		h := t.HashExcept(i)
		g := heads[h] - 1
		for g >= 0 && !groups[g].first.AgreeExcept(t, i) {
			g = groups[g].next
		}
		if g < 0 {
			groups = append(groups, group{first: t, next: heads[h] - 1})
			heads[h] = len(groups)
			continue
		}
		groups[g].atoms = append(groups[g].atoms, t.Set(i).Atoms()...)
	}
	out := make([]tuple.Tuple, len(groups))
	for g, gr := range groups {
		out[g] = gr.first
		if gr.atoms != nil {
			out[g] = gr.first.WithSet(i, vset.New(append(gr.atoms, gr.first.Set(i).Atoms()...)...))
		}
	}
	return out, len(ts) - len(groups)
}

// canonicalOf nests ts over p[0], then p[1], … and builds the result
// Relation once.
func canonicalOf(s *schema.Schema, ts []tuple.Tuple, p schema.Permutation) (*Relation, int) {
	if !p.Valid(s) {
		panic(fmt.Sprintf("core: invalid permutation %v for schema %v", p, s))
	}
	total := 0
	for _, i := range p {
		var c int
		ts, c = nest(ts, i)
		total += c
	}
	return MustFromTuples(s, ts), total
}

// IsCanonicalFor reports whether r equals V_P(R*) for the given
// permutation — i.e. whether r is the canonical form of its own
// information content under P. It panics on an invalid permutation.
//
// It builds neither R* nor V_P. With T_k the relation r unnested on
// p[k..n−1] (T_n = r, T_0 = R*), r = V_P(R*) iff for every k < n no two
// rows of T_{k+1} agree on every attribute but p[k]: each level is then
// exactly ν_{p[k]} of the one below it, and V_P's levels unnest into
// one another. A row of T_{k+1} is a tuple with one atom picked at each
// attribute of p[>k], named by index arithmetic and never built, hashed
// the way HashExcept(p[k]) hashes (set hashes at p[<k], atom hashes at
// p[>k]) and compared exactly on a hash match. It touches
// Σ_t Σ_k Π_{j>k}|t_{p[j]}| ≤ n·|R*| rows.
func (r *Relation) IsCanonicalFor(p schema.Permutation) bool {
	if !p.Valid(r.sch) {
		panic(fmt.Sprintf("core: invalid permutation %v for schema %v", p, r.sch))
	}
	n := len(p)
	level := make([]int, n) // level[c]: the position of attribute c in p
	for k, c := range p {
		level[c] = k
	}
	// pick[x][c] is the atom row q of t takes at c in p[>k], p[n−1]
	// varying fastest; name returns the number of rows t unnests into
	pick := [2][]int{make([]int, n), make([]int, n)}
	name := func(x int, t tuple.Tuple, k, q int) int {
		rows := 1
		for j := n - 1; j > k; j-- {
			size := t.Set(p[j]).Len()
			pick[x][p[j]] = q / rows % size
			rows *= size
		}
		return rows
	}
	type slot struct {
		h    uint64
		t, q int // 1 + the tuple's position (0: empty), the row within it
	}
	// agree reports whether the row of t named in pick[0] and the row in
	// s agree on every attribute but p[k]
	agree := func(t tuple.Tuple, k int, s slot) bool {
		u := r.tuples[s.t-1]
		name(1, u, k, s.q)
		for c, l := range level {
			if l < k && !t.Set(c).Equal(u.Set(c)) || l > k && !value.Equal(t.Set(c).At(pick[0][c]), u.Set(c).At(pick[1][c])) {
				return false
			}
		}
		return true
	}
	most := 0 // the rows of T_1, the largest level
	for _, t := range r.tuples {
		most += name(0, t, 0, 0)
	}
	slots := make([]slot, 1<<bits.Len(uint(2*most))) // open addressing
	mask := uint64(len(slots) - 1)
	for k := n - 1; k >= 0; k-- {
		clear(slots)
		for ti, t := range r.tuples {
			for q, rows := 0, name(0, t, k, 0); q < rows; q++ {
				name(0, t, k, q)
				var h uint64 = 1469598103934665603
				for c, s := range t.Sets() {
					switch {
					case level[c] == k:
						h ^= 0x00c0ffee
					case level[c] < k:
						h ^= s.Hash()
					default:
						h ^= s.At(pick[0][c]).Hash()
					}
					h *= 1099511628211
				}
				h &= hashMask
				for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
					if slots[i].t == 0 {
						slots[i] = slot{h, ti + 1, q}
						break
					}
					if slots[i].h == h && agree(t, k, slots[i]) {
						return false
					}
				}
			}
		}
	}
	return true
}
