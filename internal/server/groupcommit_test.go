package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/storage/syncgate"
	"repro/internal/tuple"
)

// TestGroupCommitOverTheWire: four TCP connections, each committing
// 4-statement transactions on its own relation, while the first commit
// fsync of every round is held until the others have caught up. The
// group-commit economics must survive the network hop — ServerStats
// reports fewer commit fsyncs than transactions — and each served
// relation is V_P of the flats its connection inserted (the paper's
// definition: CanonicalFromFlats of R*), live and reopened.
func TestGroupCommitOverTheWire(t *testing.T) {
	const conns, txs, perTx = 4, 10, 4
	gate := syncgate.New()
	path := filepath.Join(t.TempDir(), "served.nfrs")
	open := func() *engine.Database {
		db, err := engine.Open(path, engine.WithFileSystem(gate.Open(storage.OpenOSFile), os.Remove), engine.WithCheckpointBytes(-1))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	srv := New(db, Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() { // both are no-ops after the orderly shutdown below
		srv.Close()
		db.Close()
	})
	addr := lis.Addr().String()

	clients := make([]*client.Client, conns)
	stmts := make([][txs][]string, conns) // per connection and transaction: its INSERTs
	want := make([]*core.Relation, conns)
	for c := range clients {
		if clients[c], err = client.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[c].Close()
		name := fmt.Sprintf("T%d", c)
		mustExec(t, clients[c], fmt.Sprintf("CREATE %s (Student, Course, Club)", name))
		flat := core.NewRelation(testSchema)
		for i := 0; i < txs*perTx; i++ {
			s, co, b := fmt.Sprintf("s%d_%d", c, i%3), fmt.Sprintf("c%d", i), fmt.Sprintf("b%d", i%2)
			flat.Add(tuple.FromFlat(tuple.FlatOfStrings(s, co, b)))
			stmts[c][i/perTx] = append(stmts[c][i/perTx], stmtInsert(name, s, co, b))
		}
		// CREATE without ORDER and dependencies nests in schema order
		want[c], _ = flat.CanonicalFromFlats(schema.IdentityPerm(testSchema.Degree()))
	}
	before, err := clients[0].Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	err = gate.Run(conns, txs, func(c, tx int) func() error {
		ctx := context.Background()
		for _, stmt := range append([]string{"BEGIN"}, stmts[c][tx]...) {
			if _, err := clients[c].Exec(ctx, stmt); err != nil {
				return func() error { return fmt.Errorf("%s: %w", stmt, err) }
			}
		}
		return func() error {
			_, err := clients[c].Exec(ctx, "COMMIT")
			return err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := clients[0].Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := after.WAL.Fsyncs - before.WAL.Fsyncs
	t.Logf("%d transactions in %d commit fsyncs, largest commit group %d", conns*txs, fsyncs, after.WAL.MaxGroupBatches)
	if fsyncs >= conns*txs {
		t.Errorf("%d commit fsyncs for %d transactions: nothing merged over the wire", fsyncs, conns*txs)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil && err != ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	check := func(db *engine.Database, stage string) {
		t.Helper()
		for c := 0; c < conns; c++ {
			name := fmt.Sprintf("T%d", c)
			if got := readRelWatchdog(t, db, name); !got.Equal(want[c]) {
				t.Fatalf("%s: %s is\n%v\nwant V_P of its flats\n%v", stage, name, got, want[c])
			}
		}
		if err := db.VerifyIndexes(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := open()
	defer db2.Close()
	check(db2, "reopened")
}
