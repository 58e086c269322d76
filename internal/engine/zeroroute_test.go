package engine_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// TestShardedLookupFindsNegativeZero: −0.0 and +0.0 are one determinant
// value (value.Compare and the index key say so), so on a K-sharded
// relation a row stored under one is found by a probe for the other.
func TestShardedLookupFindsNegativeZero(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "zero.nfrs"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Create(engine.RelationDef{Name: "r", Schema: schema.MustOf("A", "B"), Shards: 3}); err != nil {
		t.Fatal(err)
	}
	negZero := value.NewFloat(math.Copysign(0, -1))
	if _, err := db.Insert("r", tuple.Flat{value.NewString("a"), negZero}); err != nil {
		t.Fatal(err)
	}
	rel, err := db.LookupFixed("r", value.NewFloat(0))
	if err != nil || rel.Len() != 1 {
		t.Fatalf("LookupFixed(+0.0) found %v tuples of 1 stored under -0.0 (err %v)", rel.Len(), err)
	}
	res, err := query.NewSessionOn(db).Exec(`SELECT * FROM r WHERE B = 0.0`)
	if err != nil || res.Relation.Len() != 1 {
		t.Fatalf("SELECT WHERE B = 0.0: %v, err %v", res, err)
	}
}
