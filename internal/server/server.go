// Package server is the network front end: a TCP server speaking the
// internal/wire frame protocol, running one query.Session per
// connection over the engine's Begin(ctx)/Tx API.
//
// Production concerns are the point of this layer:
//
//   - a connection limit (connections past it are refused with a
//     CodeBusy error frame, never silently dropped);
//   - per-connection contexts, cancelled when the connection ends, so
//     an abandoned scan stops at page-fetch granularity;
//   - an idle timeout that closes connections parked mid-transaction —
//     an idle open Tx holds relation latches, and nothing else would
//     ever release them;
//   - graceful shutdown: Shutdown stops accepting, lets every
//     in-flight statement (including a commit) finish and answer, then
//     closes each connection — the session rollback in the connection
//     teardown rolls back whatever transaction was still open, exactly
//     the engine's Close semantics, so the served file is always left
//     at a committed boundary.
//
// A connection that dies mid-transaction (crash, cable pull, fault
// injection) takes the same teardown path: the orphaned transaction is
// rolled back and its latches released before the handler goroutine
// exits. See docs/server.md for the protocol and lifecycle reference.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/wire"
)

// Defaults for Config zero values.
const (
	DefaultMaxConns    = 64
	DefaultIdleTimeout = 5 * time.Minute
	// writeTimeout bounds every response write so a dead peer cannot
	// wedge a handler (and with it, graceful shutdown) forever.
	writeTimeout = 30 * time.Second
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value serves with the defaults.
type Config struct {
	// MaxConns caps concurrently served connections; connections past
	// the cap receive a CodeBusy error frame and are closed. 0 means
	// DefaultMaxConns; negative means unlimited.
	MaxConns int
	// IdleTimeout closes a connection that sends no frame for this
	// long — including one parked inside an open transaction, whose
	// latches would otherwise be held forever. 0 means
	// DefaultIdleTimeout; negative disables the timeout.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives one line per connection-level event
	// (accept, refuse, teardown, shutdown).
	Logf func(format string, args ...any)
}

// Server serves one engine.Database over the wire protocol. Create
// with New, start with Serve on a listener, stop with Shutdown
// (graceful) or Close (immediate). The Server does not own the
// database: the caller closes it after the server has stopped.
type Server struct {
	db  *engine.Database
	cfg Config

	mu    sync.Mutex
	lis   net.Listener
	conns map[*conn]struct{}

	draining atomic.Bool
	served   sync.WaitGroup // one per live connection handler

	accepted   atomic.Int64
	refused    atomic.Int64
	statements atomic.Int64

	// testHookStmt, when set, runs before each statement executes —
	// the shutdown tests use it to park a statement deterministically
	// in flight.
	testHookStmt func(stmt string)
}

// New creates a server for db. Zero-value cfg fields take the
// defaults.
func New(db *engine.Database, cfg Config) *Server {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	return &Server{db: db, cfg: cfg, conns: make(map[*conn]struct{})}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Addr returns the listener address once Serve has one (for tests and
// for -addr :0).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections on lis until Shutdown or Close, then
// returns ErrServerClosed. Each accepted connection is served by its
// own goroutine with its own query.Session.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	if s.lis != nil {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: already serving")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.accepted.Add(1)
		s.mu.Lock()
		refuse := byte(0)
		switch {
		case s.draining.Load():
			refuse = wire.CodeShutdown
		case s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns:
			refuse = wire.CodeBusy
		}
		if refuse != 0 {
			s.mu.Unlock()
			s.refused.Add(1)
			s.logf("refuse %s (code %d)", nc.RemoteAddr(), refuse)
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			msg := "server at connection limit"
			if refuse == wire.CodeShutdown {
				msg = "server shutting down"
			}
			_ = wire.WriteErr(nc, refuse, msg)
			nc.Close()
			continue
		}
		c := &conn{s: s, nc: nc, sess: query.NewSessionOn(s.db)}
		c.ctx, c.cancel = context.WithCancel(context.Background())
		s.conns[c] = struct{}{}
		s.served.Add(1)
		s.mu.Unlock()
		s.logf("accept %s", nc.RemoteAddr())
		go c.serve()
	}
}

// drain flips the server into draining mode exactly once: stop
// accepting and interrupt every connection's pending read. In-flight
// statements keep running; each handler notices the drain after its
// current statement answers.
func (s *Server) drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	lis := s.lis
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.interruptRead()
	}
}

// Shutdown gracefully stops the server: no new connections, every
// in-flight statement — including a commit mid-fsync — completes and
// answers, idle connections (transaction open or not) are closed with
// a TBye, and open transactions roll back in the connection teardown.
// If ctx expires first, the remaining connections are torn down
// forcibly (contexts cancelled, sockets closed) and ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drain()
	done := make(chan struct{})
	go func() {
		s.served.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("shutdown complete")
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.cancel()
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		s.logf("shutdown forced: %v", ctx.Err())
		return ctx.Err()
	}
}

// Close stops the server immediately: the listener closes, every
// connection's context is cancelled and its socket closed, and open
// transactions roll back in the teardown. In-flight statements may be
// cut mid-execution (their transactions roll back too).
func (s *Server) Close() error {
	s.drain()
	s.mu.Lock()
	for c := range s.conns {
		c.cancel()
		c.nc.Close()
	}
	s.mu.Unlock()
	s.served.Wait()
	return nil
}

// Stats snapshots the server-wide statistics served by the TStats
// frame.
func (s *Server) Stats() wire.ServerStats {
	st := wire.ServerStats{
		MaxConns:   s.cfg.MaxConns,
		Accepted:   s.accepted.Load(),
		Refused:    s.refused.Load(),
		Statements: s.statements.Load(),
		LatchWaits: s.db.LatchWaits(),
	}
	s.mu.Lock()
	st.Conns = len(s.conns)
	s.mu.Unlock()
	st.Pool, _ = s.db.AllPoolStats()
	st.WAL, _ = s.db.WALStats()
	if ps := s.db.PipelineStats(); len(ps) > 0 {
		st.Pipelines = make(map[string]wire.RelPipeline, len(ps))
		for name, p := range ps {
			st.Pipelines[name] = wire.RelPipeline{
				Shards:     p.Shards,
				Batches:    p.Batches,
				Ops:        p.Ops,
				MaxBatch:   p.MaxBatch,
				QueuePeak:  p.QueuePeak,
				LatchWaits: p.LatchWaits,
			}
		}
	}
	if ips, err := s.db.IndexPageStats(); err == nil && len(ips) > 0 {
		st.Indexes = make(map[string]wire.RelIndexPages, len(ips))
		for name, c := range ips {
			st.Indexes[name] = wire.RelIndexPages{BTreeInner: c.BTreeInner, BTreeLeaf: c.BTreeLeaf}
		}
	}
	return st
}

// conn is one served connection: its socket, its session (whose open
// transaction, if any, is rolled back at teardown), and its context
// (cancelled at teardown so abandoned scans stop).
type conn struct {
	s      *Server
	nc     net.Conn
	sess   *query.Session
	ctx    context.Context
	cancel context.CancelFunc

	// dlMu serializes the handler's read-deadline arming against the
	// drain interrupt, so a drain can never be overwritten by a stale
	// idle deadline.
	dlMu sync.Mutex
}

// aDeadlinePast is the deadline used to interrupt a pending read.
var aDeadlinePast = time.Unix(1, 0)

// armRead sets the read deadline for the next frame: immediate when
// draining, the idle timeout otherwise.
func (c *conn) armRead() {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	switch {
	case c.s.draining.Load():
		c.nc.SetReadDeadline(aDeadlinePast)
	case c.s.cfg.IdleTimeout > 0:
		c.nc.SetReadDeadline(time.Now().Add(c.s.cfg.IdleTimeout))
	default:
		c.nc.SetReadDeadline(time.Time{})
	}
}

// interruptRead forces a pending (or future) frame read to return
// immediately. Called with the draining flag already set.
func (c *conn) interruptRead() {
	c.dlMu.Lock()
	c.nc.SetReadDeadline(aDeadlinePast)
	c.dlMu.Unlock()
}

// write sends one frame under the write timeout; a failure is
// connection-fatal (the caller returns from the serve loop).
func (c *conn) write(typ byte, payload []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return wire.Write(c.nc, typ, payload)
}

func (c *conn) writeErr(code byte, msg string) error {
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return wire.WriteErr(c.nc, code, msg)
}

// bye sends a best-effort TBye before teardown.
func (c *conn) bye(reason string) {
	_ = c.write(wire.TBye, []byte(reason))
}

// finish tears the connection down: unregister, cancel the context,
// roll back the session's open transaction (if any), close the socket.
// This is the single exit path for every way a connection ends — EOF,
// error, idle timeout, drain, quit — so an orphaned transaction can
// never outlive its connection.
func (c *conn) finish() {
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.cancel()
	if err := c.sess.Close(); err != nil && !errors.Is(err, engine.ErrTxDone) {
		c.s.logf("teardown rollback %s: %v", c.nc.RemoteAddr(), err)
	}
	c.nc.Close()
	c.s.logf("close %s", c.nc.RemoteAddr())
}

// serve is the connection's frame loop.
func (c *conn) serve() {
	defer c.s.served.Done()
	defer c.finish()
	if err := c.write(wire.THello, []byte{wire.ProtoVersion}); err != nil {
		return
	}
	for {
		c.armRead()
		typ, payload, err := wire.Read(c.nc)
		if err != nil {
			if c.s.draining.Load() {
				c.bye("server shutting down")
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.bye("idle timeout")
				return
			}
			// EOF, reset, truncated or garbage frame: close without
			// ceremony — teardown rolls back whatever was open.
			return
		}
		ok := false
		switch typ {
		case wire.TQuery:
			ok = c.execQuery(string(payload))
		case wire.TStats:
			body, err := json.Marshal(c.s.Stats())
			if err != nil {
				ok = c.writeErr(wire.CodeGeneric, err.Error()) == nil
				break
			}
			ok = c.write(wire.TStatsReply, body) == nil
		case wire.TPing:
			ok = c.write(wire.TPong, nil) == nil
		case wire.TQuit:
			c.bye("bye")
			return
		default:
			// A frame the server does not speak (including
			// server-to-client types echoed back): protocol violation,
			// answer and close.
			c.writeErr(wire.CodeGeneric, fmt.Sprintf("server: unexpected frame type 0x%02x", typ))
			return
		}
		if !ok {
			return
		}
		if c.s.draining.Load() {
			c.bye("server shutting down")
			return
		}
	}
}

// execQuery runs one statement on the connection's session and writes
// the response frame. Statement errors keep the connection usable;
// only a failed response write is fatal (reported by returning false).
func (c *conn) execQuery(stmt string) bool {
	c.s.statements.Add(1)
	st, err := query.Parse(stmt)
	if err != nil {
		return c.writeErr(wire.CodeParse, err.Error()) == nil
	}
	if c.s.testHookStmt != nil {
		c.s.testHookStmt(stmt)
	}
	res, err := c.sess.ExecStmtContext(c.ctx, st)
	if err != nil {
		return c.writeErr(errCode(err), err.Error()) == nil
	}
	if res.Relation != nil {
		var buf bytes.Buffer
		if err := encoding.WriteRelation(&buf, res.Relation); err != nil {
			return c.writeErr(wire.CodeGeneric, err.Error()) == nil
		}
		return c.write(wire.TRows, buf.Bytes()) == nil
	}
	return c.write(wire.TMsg, []byte(res.Message)) == nil
}

// errCode flattens the engine's error taxonomy to a wire code.
func errCode(err error) byte {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		return wire.CodeNotFound
	case errors.Is(err, engine.ErrExists):
		return wire.CodeExists
	case errors.Is(err, engine.ErrTypeMismatch):
		return wire.CodeTypeMismatch
	case errors.Is(err, engine.ErrTxDone):
		return wire.CodeTxDone
	case errors.Is(err, engine.ErrTxConflict):
		return wire.CodeTxConflict
	case errors.Is(err, engine.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, engine.ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, engine.ErrCorrupt):
		return wire.CodeCorrupt
	case errors.Is(err, engine.ErrMispaired):
		return wire.CodeMispaired
	default:
		return wire.CodeGeneric
	}
}
