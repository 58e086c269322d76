package engine

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

func studentDef() RelationDef {
	return RelationDef{
		Name:   "R1",
		Schema: schema.MustOf("Student", "Course", "Club"),
		MVDs:   []dep.MVD{dep.NewMVD([]string{"Student"}, []string{"Course"})},
	}
}

func TestSuggestOrder(t *testing.T) {
	s := schema.MustOf("Student", "Course", "Club")
	// MVD Student ->-> Course: Student is a determinant, so it nests
	// last; Course and Club nest first (schema order within classes).
	p := SuggestOrder(s, nil, []dep.MVD{dep.NewMVD([]string{"Student"}, []string{"Course"})})
	names := p.Names(s)
	if names[2] != "Student" {
		t.Errorf("order = %v, want Student last", names)
	}
	// no deps: identity
	p2 := SuggestOrder(s, nil, nil)
	if p2.String() != schema.IdentityPerm(3).String() {
		t.Errorf("identity expected, got %v", p2)
	}
	// FD determinants also go last
	p3 := SuggestOrder(s, []dep.FD{dep.NewFD([]string{"Course"}, []string{"Club"})}, nil)
	if p3.Names(s)[2] != "Course" {
		t.Errorf("order = %v", p3.Names(s))
	}
}

func TestCreateValidation(t *testing.T) {
	db := New()
	if err := db.Create(RelationDef{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := db.Create(RelationDef{Name: "r"}); err == nil {
		t.Error("nil schema accepted")
	}
	if err := db.Create(RelationDef{
		Name: "r", Schema: schema.MustOf("A"),
		FDs: []dep.FD{dep.NewFD([]string{"Z"}, []string{"A"})},
	}); err == nil {
		t.Error("FD with unknown attribute accepted")
	}
	if err := db.Create(RelationDef{
		Name: "r", Schema: schema.MustOf("A"),
		MVDs: []dep.MVD{dep.NewMVD([]string{"A"}, []string{"Z"})},
	}); err == nil {
		t.Error("MVD with unknown attribute accepted")
	}
	if err := db.Create(RelationDef{
		Name: "r", Schema: schema.MustOf("A", "B"),
		Order: schema.Permutation{0},
	}); err == nil {
		t.Error("invalid order accepted")
	}
	if err := db.Create(studentDef()); err != nil {
		t.Fatal(err)
	}
	if err := db.Create(studentDef()); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestInsertDeleteAndStats(t *testing.T) {
	db := New()
	if err := db.Create(studentDef()); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"s1", "c1", "b1"}, {"s1", "c2", "b1"}, {"s1", "c3", "b1"},
		{"s3", "c1", "b1"}, {"s3", "c2", "b1"}, {"s3", "c3", "b1"},
		{"s2", "c1", "b2"}, {"s2", "c2", "b2"}, {"s2", "c3", "b2"},
	}
	for _, r := range rows {
		ch, err := db.Insert("R1", tuple.FlatOfStrings(r...))
		if err != nil {
			t.Fatal(err)
		}
		if !ch {
			t.Errorf("insert %v reported no change", r)
		}
	}
	st, err := db.Stats("R1")
	if err != nil {
		t.Fatal(err)
	}
	if st.FlatTuples != 9 {
		t.Errorf("FlatTuples = %d", st.FlatTuples)
	}
	// s1 and s3 share the same course set and club, so the canonical
	// form groups them into one tuple (exactly Fig. 1 R1's grouped
	// Student column): 2 NFR tuples for 9 flat tuples.
	if st.NFRTuples != 2 {
		t.Errorf("NFRTuples = %d (expected 2: {s1,s3} grouped, s2 alone)", st.NFRTuples)
	}
	if st.Compression != 4.5 {
		t.Errorf("Compression = %v", st.Compression)
	}
	// the Fig-2 update: s1 stops taking c1
	ch, err := db.Delete("R1", tuple.FlatOfStrings("s1", "c1", "b1"))
	if err != nil || !ch {
		t.Fatalf("delete: %v %v", ch, err)
	}
	st, _ = db.Stats("R1")
	if st.FlatTuples != 8 {
		t.Errorf("FlatTuples after delete = %d", st.FlatTuples)
	}
	// validated against scratch rebuild
	r, _ := db.Rel("R1")
	want, _ := r.Relation().CanonicalFromFlats(r.Def().Order)
	if !r.Relation().Equal(want) {
		t.Error("engine relation not canonical after delete")
	}
	if st.Ops.Compositions == 0 {
		t.Error("no compositions recorded")
	}
	r.ResetStats()
	if r.Stats().Compositions != 0 {
		t.Error("ResetStats failed")
	}
}

func TestTypeChecking(t *testing.T) {
	db := New()
	def := RelationDef{
		Name: "typed",
		Schema: schema.MustNew(
			schema.Attribute{Name: "ID", Kind: value.Int},
			schema.Attribute{Name: "Name", Kind: value.String},
		),
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("typed", tuple.Flat{value.NewInt(1), value.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("typed", tuple.Flat{value.NewString("no"), value.NewString("x")}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := db.Insert("typed", tuple.Flat{value.NewInt(1)}); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestUnknownRelationErrors(t *testing.T) {
	db := New()
	if _, err := db.Insert("nope", tuple.FlatOfStrings("x")); err == nil {
		t.Error("insert into unknown accepted")
	}
	if _, err := db.Delete("nope", tuple.FlatOfStrings("x")); err == nil {
		t.Error("delete from unknown accepted")
	}
	if _, err := db.Stats("nope"); err == nil {
		t.Error("stats of unknown accepted")
	}
	if _, err := db.ValidateDeps("nope"); err == nil {
		t.Error("validate of unknown accepted")
	}
	if err := db.Drop("nope"); err == nil {
		t.Error("drop of unknown accepted")
	}
}

func TestDropAndNames(t *testing.T) {
	db := New()
	db.Create(RelationDef{Name: "b", Schema: schema.MustOf("X")})
	db.Create(RelationDef{Name: "a", Schema: schema.MustOf("X")})
	names := db.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if len(db.Names()) != 1 {
		t.Error("drop failed")
	}
}

func TestValidateDeps(t *testing.T) {
	db := New()
	def := RelationDef{
		Name:   "r",
		Schema: schema.MustOf("A", "B", "C"),
		FDs:    []dep.FD{dep.NewFD([]string{"A"}, []string{"B"})},
		MVDs:   []dep.MVD{dep.NewMVD([]string{"A"}, []string{"B"})},
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	db.Insert("r", tuple.FlatOfStrings("a1", "b1", "c1"))
	v, err := db.ValidateDeps("r")
	if err != nil || len(v) != 0 {
		t.Fatalf("clean relation has violations: %v %v", v, err)
	}
	// violate the FD: a1 with two B values
	db.Insert("r", tuple.FlatOfStrings("a1", "b2", "c1"))
	v, _ = db.ValidateDeps("r")
	if len(v) != 1 || v[0].Dep != "A -> B" {
		t.Errorf("violations = %v", v)
	}
	// now also violate the MVD
	db.Insert("r", tuple.FlatOfStrings("a1", "b1", "c2"))
	v, _ = db.ValidateDeps("r")
	if len(v) != 2 {
		t.Errorf("violations = %v", v)
	}
}

func TestInsertMany(t *testing.T) {
	db := New()
	db.Create(RelationDef{Name: "r", Schema: schema.MustOf("A", "B")})
	n, err := db.InsertMany("r", []tuple.Flat{
		tuple.FlatOfStrings("a", "b"),
		tuple.FlatOfStrings("a", "b"), // dup
		tuple.FlatOfStrings("a", "c"),
	})
	if err != nil || n != 2 {
		t.Errorf("InsertMany = %d, %v", n, err)
	}
	if _, err := db.InsertMany("r", []tuple.Flat{tuple.FlatOfStrings("short")}); err == nil {
		t.Error("bad tuple accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	def := studentDef()
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		db.Insert("R1", tuple.FlatOfStrings(
			[]string{"s1", "s2", "s3"}[rng.Intn(3)],
			[]string{"c1", "c2", "c3", "c4"}[rng.Intn(4)],
			[]string{"b1", "b2"}[rng.Intn(2)],
		))
	}
	db.Create(RelationDef{Name: "plain", Schema: schema.MustOf("X", "Y")})
	db.Insert("plain", tuple.FlatOfStrings("x", "y"))

	path := filepath.Join(t.TempDir(), "db.nfrs")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// saving twice over an existing file must replace it cleanly
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Names()) != 2 {
		t.Fatalf("Names = %v", db2.Names())
	}
	r1, _ := db.Rel("R1")
	r2, err := db2.Rel("R1")
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Relation().Equal(r2.Relation()) {
		t.Error("relation content changed across save/load")
	}
	if r2.Def().Order.String() != r1.Def().Order.String() {
		t.Error("order lost")
	}
	if len(r2.Def().MVDs) != 1 || r2.Def().MVDs[0].String() != "Student ->-> Course" {
		t.Errorf("MVDs lost: %v", r2.Def().MVDs)
	}
	// loaded database keeps working incrementally
	ch, err := db2.Insert("R1", tuple.FlatOfStrings("s9", "c9", "b9"))
	if err != nil || !ch {
		t.Fatalf("insert after load: %v %v", ch, err)
	}
	rel2, _ := db2.Rel("R1")
	want, _ := rel2.Relation().CanonicalFromFlats(rel2.Def().Order)
	if !rel2.Relation().Equal(want) {
		t.Error("not canonical after load+insert")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.nfrs")); err == nil {
		t.Error("load of missing file accepted")
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("load of a directory accepted")
	}
}

// Integration check: engine stays exactly canonical through mixed
// random workloads on a 4-attribute relation with an FD.
func TestEngineCanonicalInvariant(t *testing.T) {
	db := New()
	// Theorem 3's fixedness guarantee needs the FD to cover the
	// universe (F is a key): A -> B,C,D.
	def := RelationDef{
		Name:   "r",
		Schema: schema.MustOf("A", "B", "C", "D"),
		FDs:    []dep.FD{dep.NewFD([]string{"A"}, []string{"B", "C", "D"})},
	}
	if err := db.Create(def); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	byA := map[int]tuple.Flat{}
	var live []tuple.Flat
	for step := 0; step < 150; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			a := rng.Intn(40)
			f, ok := byA[a]
			if !ok {
				f = tuple.Flat{
					value.NewInt(int64(a)),
					value.NewInt(int64(rng.Intn(3))),
					value.NewInt(int64(rng.Intn(3))),
					value.NewInt(int64(rng.Intn(3))),
				}
				byA[a] = f
			}
			ch, err := db.Insert("r", f)
			if err != nil {
				t.Fatal(err)
			}
			if ch {
				live = append(live, f)
			}
		} else {
			i := rng.Intn(len(live))
			if _, err := db.Delete("r", live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	r, _ := db.Rel("r")
	flat := core.MustFromFlats(def.Schema, live)
	want, _ := flat.Canonical(r.Def().Order)
	if !r.Relation().Equal(want) {
		t.Error("engine diverged from canonical rebuild")
	}
	if v, _ := db.ValidateDeps("r"); len(v) != 0 {
		t.Errorf("FD violations: %v", v)
	}
	// canonical form is fixed on the FD determinant A (Theorem 3)
	if len(live) > 0 && !r.Relation().FixedOn(schema.NewAttrSet("A")) {
		t.Error("canonical form not fixed on FD determinant")
	}
}
