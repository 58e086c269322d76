package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// startServer opens a fresh disk-backed database in dir and serves it
// on a kernel-assigned loopback port. The caller owns shutdown order:
// stop the server first, then close the database.
func startServer(t *testing.T, dir string, cfg Config) (*Server, *engine.Database, string) {
	t.Helper()
	db, err := engine.Open(filepath.Join(dir, "served.nfrs"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, cfg)
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
	return srv, db, lis.Addr().String()
}

// connCount reads the live-connection count (tests only).
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// waitConns polls until the server serves exactly n connections.
func waitConns(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.connCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("still %d connections, want %d", srv.connCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustExec runs one statement through the client and fails the test on
// any error.
func mustExec(t *testing.T, c *client.Client, stmt string) client.Result {
	t.Helper()
	res, err := c.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

func TestStatementsAndStatsOverWire(t *testing.T) {
	srv, db, addr := startServer(t, t.TempDir(), Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	mustExec(t, c, "CREATE enrollment (Student, Course, Club)")
	mustExec(t, c, "INSERT INTO enrollment VALUES (s1, c1, b1), (s1, c2, b1)")
	res := mustExec(t, c, "SHOW enrollment")
	if res.Relation == nil {
		t.Fatalf("SHOW returned no relation (message %q)", res.Message)
	}
	if got := res.Relation.ExpansionSize(); got != 2 {
		t.Fatalf("SHOW expansion = %d flat tuples, want 2", got)
	}
	// The relation decoded from the wire equals the server's own view.
	direct, err := db.ReadRelation(context.Background(), "enrollment")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relation.Equal(direct) {
		t.Fatalf("wire relation differs from direct read")
	}

	// Transactions on the session: rollback leaves no trace.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO enrollment VALUES (s9, c9, b9)")
	mustExec(t, c, "ROLLBACK")
	direct, _ = db.ReadRelation(context.Background(), "enrollment")
	if direct.ExpansionSize() != 2 {
		t.Fatalf("rolled-back insert visible: %d flat tuples", direct.ExpansionSize())
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Conns != 1 || st.Statements < 5 || st.Accepted != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.WAL.Fsyncs == 0 {
		t.Fatalf("stats carried no WAL counters: %+v", st.WAL)
	}
	// The autocommit inserts rode the relation's write pipeline; the
	// stats frame must surface that per-relation accounting.
	pp, ok := st.Pipelines["enrollment"]
	if !ok {
		t.Fatalf("stats carried no pipeline counters: %+v", st.Pipelines)
	}
	if pp.Shards < 1 || pp.Ops < 1 || pp.Batches < 1 || pp.MaxBatch < 1 {
		t.Fatalf("pipeline counters empty: %+v", pp)
	}
	// Durable relations carry one B+tree per shard; the stats frame
	// must report its page footprint.
	ip, ok := st.Indexes["enrollment"]
	if !ok {
		t.Fatalf("stats carried no index pages: %+v", st.Indexes)
	}
	if ip.BTreeInner < 1 || ip.BTreeLeaf < 1 {
		t.Fatalf("index page counters empty: %+v", ip)
	}
	// EXPLAIN travels the wire as an ordinary statement.
	res = mustExec(t, c, "EXPLAIN SELECT * FROM enrollment WHERE Student >= s0 AND Student < s5")
	if res.Relation != nil || res.Message == "" {
		t.Fatalf("explain over wire: %+v", res)
	}
	_ = srv
}

func TestErrorTaxonomyOverWire(t *testing.T) {
	_, _, addr := startServer(t, t.TempDir(), Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		stmt string
		want error
	}{
		{"SHOW nope", engine.ErrNotFound},
		{"INSERT INTO nope VALUES (a)", engine.ErrNotFound},
		{"THIS IS NOT A STATEMENT", client.ErrParse},
	}
	mustExec(t, c, "CREATE r (A, B)")
	cases = append(cases, struct {
		stmt string
		want error
	}{"CREATE r (A, B)", engine.ErrExists})
	for _, tc := range cases {
		_, err := c.Exec(context.Background(), tc.stmt)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.stmt, err, tc.want)
		}
	}
	// Statement errors keep the connection usable.
	mustExec(t, c, "INSERT INTO r VALUES (a, b)")
}

func TestConnLimit(t *testing.T) {
	srv, _, addr := startServer(t, t.TempDir(), Config{MaxConns: 2})
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitConns(t, srv, 2)

	if _, err := client.Dial(addr, client.WithDialRetries(0)); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("third dial: %v, want ErrBusy", err)
	}
	if got := srv.Stats().Refused; got != 1 {
		t.Fatalf("refused = %d, want 1", got)
	}

	// Freeing a slot lets the retry path in.
	c1.Close()
	waitConns(t, srv, 1)
	c3, err := client.Dial(addr, client.WithDialRetries(5))
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c3.Close()
}

func TestIdleTimeoutRollsBackOpenTx(t *testing.T) {
	srv, db, addr := startServer(t, t.TempDir(), Config{IdleTimeout: 150 * time.Millisecond})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, "CREATE r (A, B)")
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO r VALUES (a, b)")

	// Park. The server must time the connection out and roll the
	// transaction back, releasing r's latch.
	waitConns(t, srv, 0)

	// The latch is free again: an autocommit statement succeeds instead
	// of blocking forever behind the orphaned transaction.
	done := make(chan error, 1)
	go func() {
		_, err := db.Insert("r", tuple.FlatOfStrings("x", "y"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("insert blocked: idle teardown leaked the relation latch")
	}
	rel, err := db.ReadRelation(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if rel.ExpansionSize() != 1 {
		t.Fatalf("idle transaction's insert survived: %d flat tuples, want 1", rel.ExpansionSize())
	}
	// The client learns its fate on the next call.
	if _, err := c.Exec(context.Background(), "COMMIT"); err == nil {
		t.Fatal("exec after idle close succeeded")
	}
}

// TestGarbageConnectionsNoHandlerLeak throws protocol garbage at a
// live server: corrupted frames, hostile length prefixes, client-bound
// frame types, raw noise. Every such connection must be closed without
// panicking and without leaking its handler goroutine, and the server
// must keep serving well-formed clients afterwards.
func TestGarbageConnectionsNoHandlerLeak(t *testing.T) {
	srv, _, addr := startServer(t, t.TempDir(), Config{})
	before := runtime.NumGoroutine()

	payloads := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},                                            // hostile length prefix
		{0x00, 0x00, 0x00, 0x03, 0x01},                                      // undersized length
		append(wire.Append(nil, wire.TQuery, []byte("SHOW r")), 0xDE, 0xAD), // valid then trailing junk
		wire.Append(nil, wire.TMsg, []byte("i am the server now")),          // server-to-client type
		{0x00}, // lone byte
	}
	// A frame with a flipped CRC bit.
	bad := wire.Append(nil, wire.TQuery, []byte("SHOW r"))
	bad[len(bad)-1] ^= 0x01
	payloads = append(payloads, bad)

	for round := 0; round < 5; round++ {
		for i, p := range payloads {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("round %d payload %d: dial: %v", round, i, err)
			}
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, _, err := wire.Read(nc); err != nil { // hello
				t.Fatalf("round %d payload %d: hello: %v", round, i, err)
			}
			nc.Write(p)
			// Half-close so a server parked mid-frame sees EOF now
			// instead of waiting out the idle timeout.
			nc.(*net.TCPConn).CloseWrite()
			// Drain whatever the server answers until it closes.
			for {
				if _, _, err := wire.Read(nc); err != nil {
					break
				}
			}
			nc.Close()
		}
	}
	waitConns(t, srv, 0)

	// Handler goroutines are gone (allow slack for runtime/test
	// goroutines that come and go).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d before garbage, %d after — handler leak", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Still serving.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, "CREATE ok (A)")
	mustExec(t, c, "INSERT INTO ok VALUES (a)")
}

// TestRefusedWhileDraining: a dial racing Shutdown is answered with a
// CodeShutdown error frame, not a hang.
func TestRefusedWhileDraining(t *testing.T) {
	srv, _, addr := startServer(t, t.TempDir(), Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The listener is closed: new dials are refused at the TCP level.
	if _, err := client.Dial(addr, client.WithDialRetries(0), client.WithDialTimeout(time.Second)); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// The drained client's next call reports the shutdown.
	if _, err := c.Exec(context.Background(), "SHOW r"); !errors.Is(err, client.ErrShuttingDown) && err == nil {
		t.Fatalf("exec after drain: %v", err)
	}
}

// TestServeTwice: a second Serve on a stopped server reports closed
// instead of wedging.
func TestServeTwice(t *testing.T) {
	db, err := engine.Open(filepath.Join(t.TempDir(), "d.nfrs"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	waitListening(t, lis.Addr().String())
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	lis2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := srv.Serve(lis2); err != ErrServerClosed {
		t.Fatalf("second Serve: %v", err)
	}
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			nc.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened on %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flatRow builds the 3-attribute test row shape used across the
// server tests.
func flatRow(a, b, c string) tuple.Flat { return tuple.FlatOfStrings(a, b, c) }

var testSchema = schema.MustOf("Student", "Course", "Club")

func stmtInsert(rel, a, b, c string) string {
	return fmt.Sprintf("INSERT INTO %s VALUES (%s, %s, %s)", rel, a, b, c)
}
