package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
)

// TestShutdownDrainsInFlightCommit is the graceful-shutdown satellite:
// Shutdown arrives while one connection is parked in an open
// transaction and another has a COMMIT deterministically in flight
// (held by the statement hook until the server is draining). The
// in-flight commit must complete and be answered, the idle
// transaction must roll back, the listener must close, and the file
// must reopen index-consistent with exactly the committed rows.
func TestShutdownDrainsInFlightCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "d.nfrs"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})

	// The hook parks the armed COMMIT mid-execution until the server is
	// draining, making "shutdown with a commit in flight" deterministic
	// instead of a race the test usually loses. Set before Serve starts
	// so no handler goroutine can race the write.
	var armed atomic.Bool
	commitStarted := make(chan struct{})
	srv.testHookStmt = func(stmt string) {
		if stmt == "COMMIT" && armed.CompareAndSwap(true, false) {
			close(commitStarted)
			for !srv.draining.Load() {
				time.Sleep(time.Millisecond)
			}
		}
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; err != nil && err != ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	addr := lis.Addr().String()

	// idle: a connection parked inside an open transaction.
	idle, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	mustExec(t, idle, "CREATE ga (Student, Course, Club)")
	mustExec(t, idle, "CREATE gb (Student, Course, Club)")
	mustExec(t, idle, "BEGIN")
	mustExec(t, idle, stmtInsert("ga", "s1", "c1", "b1"))

	// committer: a transaction whose COMMIT will be in flight when
	// Shutdown is called.
	committer, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer committer.Close()
	mustExec(t, committer, "BEGIN")
	mustExec(t, committer, stmtInsert("gb", "s2", "c2", "b2"))

	armed.Store(true)
	commitErr := make(chan error, 1)
	go func() {
		_, err := committer.Exec(context.Background(), "COMMIT")
		commitErr <- err
	}()
	<-commitStarted // the COMMIT statement is executing on the server

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The in-flight commit completed and was answered before teardown.
	if err := <-commitErr; err != nil {
		t.Fatalf("in-flight COMMIT: %v", err)
	}
	// The idle connection was closed; its next call reports the drain.
	if _, err := idle.Exec(context.Background(), "SHOW ga"); err == nil {
		t.Fatal("idle connection still usable after shutdown")
	}
	// The listener is closed.
	if _, err := client.Dial(addr, client.WithDialRetries(0)); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}

	// Committed rows stayed, the idle transaction rolled back.
	if n := readRelWatchdog(t, db, "ga").ExpansionSize(); n != 0 {
		t.Fatalf("idle transaction survived shutdown: ga has %d rows", n)
	}
	if n := readRelWatchdog(t, db, "gb").ExpansionSize(); n != 1 {
		t.Fatalf("in-flight commit lost: gb has %d rows, want 1", n)
	}

	// Reopen: committed boundary, indexes agree with the heap.
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := engine.Open(filepath.Join(dir, "d.nfrs"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIndexes(); err != nil {
		t.Fatalf("reopened indexes disagree with heap: %v", err)
	}
	if n := readRelWatchdog(t, db2, "gb").ExpansionSize(); n != 1 {
		t.Fatalf("reopened gb has %d rows, want 1", n)
	}
}

// TestShutdownUnderConcurrentClients drains a server while 8 clients
// hammer it with transactions that touch both a private and a shared
// relation (so wait-die conflicts and merged group commits both
// happen). Every acknowledged transaction must survive the drain and
// the reopen; unacknowledged ones must be all-or-nothing. Run under
// -race in CI, this is the shutdown satellite's concurrency leg.
func TestShutdownUnderConcurrentClients(t *testing.T) {
	const nClients = 8
	dir := t.TempDir()
	srv, db, addr := startServer(t, dir, Config{})

	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, setup, "CREATE shared (Student, Course, Club)")
	for i := 0; i < nClients; i++ {
		mustExec(t, setup, fmt.Sprintf("CREATE p%d (Student, Course, Club)", i))
	}
	setup.Close()

	// acked[i] collects the transaction numbers client i saw commit.
	acked := make([][]int, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			ctx := context.Background()
			for txn := 0; ; txn++ {
				row := fmt.Sprintf("s%d_%d", i, txn)
				stmts := []string{
					"BEGIN",
					stmtInsert(fmt.Sprintf("p%d", i), row, "c", "b"),
					stmtInsert("shared", row, "c", "b"),
					"COMMIT",
				}
				failed := false
				for _, st := range stmts {
					if _, err := c.Exec(ctx, st); err != nil {
						if errors.Is(err, engine.ErrTxConflict) {
							// wait-die victim: roll back and move on to
							// the next transaction attempt.
							if _, err := c.Exec(ctx, "ROLLBACK"); err != nil {
								return // connection gone
							}
							failed = true
							break
						}
						return // drained, closed, or poisoned: stop
					}
				}
				if !failed {
					acked[i] = append(acked[i], txn)
				}
			}
		}(i)
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	// check verifies every acked transaction is fully present and every
	// other transaction is all-or-nothing, against one Database handle.
	check := func(db *engine.Database, label string) {
		t.Helper()
		shared := relKeys(readRelWatchdog(t, db, "shared"))
		total := 0
		for i := 0; i < nClients; i++ {
			private := relKeys(readRelWatchdog(t, db, fmt.Sprintf("p%d", i)))
			total += len(acked[i])
			ackedSet := make(map[int]bool, len(acked[i]))
			for _, txn := range acked[i] {
				ackedSet[txn] = true
			}
			// Scan past the acked horizon: the last attempt may have
			// committed without its ack being recorded before the client
			// stopped — that is fine, but it must still be atomic.
			maxTxn := 0
			for _, txn := range acked[i] {
				if txn >= maxTxn {
					maxTxn = txn + 1
				}
			}
			for txn := 0; txn <= maxTxn; txn++ {
				row := flatRow(fmt.Sprintf("s%d_%d", i, txn), "c", "b").Key()
				inPrivate, inShared := private[row], shared[row]
				if inPrivate != inShared {
					t.Fatalf("%s: client %d tx %d split across relations (private=%v shared=%v)",
						label, i, txn, inPrivate, inShared)
				}
				if ackedSet[txn] && !inPrivate {
					t.Fatalf("%s: client %d tx %d acknowledged but missing", label, i, txn)
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: no transaction committed before shutdown", label)
		}
	}
	check(db, "live")

	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := engine.Open(filepath.Join(dir, "served.nfrs"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIndexes(); err != nil {
		t.Fatalf("reopened indexes disagree with heap: %v", err)
	}
	check(db2, "reopened")
}
