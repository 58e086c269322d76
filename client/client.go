// Package client is the Go client for nfr-server: it dials the wire
// protocol (internal/wire), executes NF² query-language statements on
// the server-side session bound to its connection, and rebuilds the
// engine's error taxonomy so callers branch with errors.Is exactly as
// they would against an embedded database:
//
//	c, err := client.Dial("127.0.0.1:4632", client.WithDialRetries(5))
//	res, err := c.Exec(ctx, "INSERT INTO enrollment VALUES (s1, c1, b1)")
//	if errors.Is(err, nfr.ErrNotFound) { ... }
//
// A Client is one connection and one server-side session: BEGIN opens
// a transaction on it, COMMIT/ROLLBACK end it, and the server rolls
// back an open transaction when the connection ends for any reason. A
// Client is safe for concurrent use; statements serialize on the
// connection in call order. See docs/server.md for the protocol.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	nfr "repro"
	"repro/internal/encoding"
	"repro/internal/wire"
)

// Client-side sentinels for server conditions that are not statement
// errors. The engine taxonomy itself is rebuilt onto the nfr
// sentinels — see (*ServerError).Unwrap.
var (
	// ErrBusy: the server refused the connection at its MaxConns limit
	// (Dial retries these before giving up).
	ErrBusy = errors.New("client: server at connection limit")
	// ErrShuttingDown: the server is draining and refused or closed the
	// connection.
	ErrShuttingDown = errors.New("client: server shutting down")
	// ErrParse: the statement did not parse on the server.
	ErrParse = errors.New("client: statement failed to parse")
	// ErrClosed: this client has been closed (or its connection died).
	ErrClosed = errors.New("client: connection closed")
	// ErrProtocol: the server sent something the protocol does not
	// allow here (wrong version, unexpected frame).
	ErrProtocol = errors.New("client: protocol violation")
)

// ServerError is a statement error reported by the server. Unwrap
// yields the matching nfr sentinel (or a client sentinel), so
// errors.Is(err, nfr.ErrNotFound) works across the wire.
type ServerError struct {
	Code byte   // wire.Code*
	Msg  string // the server-side error text
}

func (e *ServerError) Error() string { return "server: " + e.Msg }

func (e *ServerError) Unwrap() error {
	switch e.Code {
	case wire.CodeNotFound:
		return nfr.ErrNotFound
	case wire.CodeExists:
		return nfr.ErrExists
	case wire.CodeTypeMismatch:
		return nfr.ErrTypeMismatch
	case wire.CodeTxDone:
		return nfr.ErrTxDone
	case wire.CodeTxConflict:
		return nfr.ErrTxConflict
	case wire.CodeReadOnly:
		return nfr.ErrReadOnly
	case wire.CodeClosed:
		return nfr.ErrClosed
	case wire.CodeCorrupt:
		return nfr.ErrCorrupt
	case wire.CodeMispaired:
		return nfr.ErrMispaired
	case wire.CodeFailed:
		return nfr.ErrFailed
	case wire.CodeParse:
		return ErrParse
	case wire.CodeBusy:
		return ErrBusy
	case wire.CodeShutdown:
		return ErrShuttingDown
	default:
		return nil
	}
}

// Result is one statement's outcome: a status message (DDL/DML) or a
// relation (query statements).
type Result struct {
	Message  string
	Relation *nfr.Relation
}

// ServerStats is the server-wide statistics snapshot returned by
// Stats (the wire-level TStats frame).
type ServerStats = wire.ServerStats

type config struct {
	ioTimeout time.Duration
	retries   int
}

// Option configures Dial.
type Option func(*config)

// WithIOTimeout bounds each request/response exchange (default 30s;
// negative disables; a sooner context deadline always wins).
func WithIOTimeout(d time.Duration) Option { return func(c *config) { c.ioTimeout = d } }

// WithDialRetries sets how many times Dial retries a failed or
// CodeBusy-refused connect before giving up (default 3 retries).
func WithDialRetries(n int) Option { return func(c *config) { c.retries = n } }

// Client is one wire-protocol connection. Safe for concurrent use;
// requests serialize on the connection.
type Client struct {
	cfg config

	mu     sync.Mutex
	nc     net.Conn
	r      *bufio.Reader // frames are read through it: one read syscall per frame
	closed bool
}

// Dial connects to an nfr-server at addr ("host:port"), verifies the
// protocol handshake, and returns a ready client. Each connect attempt
// is bounded by 5s. Connect failures and busy refusals are retried per
// WithDialRetries, 50ms after the first attempt and twice as long
// after each later one; a protocol-version mismatch fails immediately.
func Dial(addr string, opts ...Option) (*Client, error) {
	const dialTimeout = 5 * time.Second
	cfg := config{ioTimeout: 30 * time.Second, retries: 3}
	for _, o := range opts {
		o(&cfg)
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= cfg.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if cfg.ioTimeout > 0 {
			nc.SetDeadline(time.Now().Add(cfg.ioTimeout))
		}
		r := bufio.NewReader(nc)
		typ, payload, err := wire.Read(r)
		if err != nil {
			nc.Close()
			lastErr = fmt.Errorf("handshake: %w", err)
			continue
		}
		switch typ {
		case wire.THello:
			if len(payload) < 1 || payload[0] != wire.ProtoVersion {
				nc.Close()
				v := -1
				if len(payload) > 0 {
					v = int(payload[0])
				}
				return nil, fmt.Errorf("server speaks protocol version %d, client %d: %w",
					v, wire.ProtoVersion, ErrProtocol)
			}
			nc.SetDeadline(time.Time{})
			return &Client{cfg: cfg, nc: nc, r: r}, nil
		case wire.TErr:
			code, msg := wire.SplitErr(payload)
			nc.Close()
			lastErr = &ServerError{Code: code, Msg: msg}
			if code != wire.CodeBusy {
				// refused for a non-transient reason: stop retrying
				return nil, lastErr
			}
		default:
			nc.Close()
			return nil, fmt.Errorf("handshake frame 0x%02x: %w", typ, ErrProtocol)
		}
	}
	return nil, fmt.Errorf("client: dial %s failed after %d attempt(s): %w",
		addr, cfg.retries+1, lastErr)
}

// deadline computes the per-exchange connection deadline from the io
// timeout and ctx (the sooner wins; zero means none).
func (c *Client) deadline(ctx context.Context) time.Time {
	var d time.Time
	if c.cfg.ioTimeout > 0 {
		d = time.Now().Add(c.cfg.ioTimeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

// roundTrip sends one frame and reads one reply under the deadline.
// Transport failures poison the client: the connection state is
// unknown (the request may have been executed), so every later call
// fails with ErrClosed until the caller dials a fresh client.
func (c *Client) roundTrip(ctx context.Context, typ byte, payload []byte) (byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	c.nc.SetDeadline(c.deadline(ctx))
	if err := wire.Write(c.nc, typ, payload); err != nil {
		c.poison()
		return 0, nil, fmt.Errorf("client: send: %w", err)
	}
	rtyp, rpayload, err := wire.Read(c.r)
	if err != nil {
		c.poison()
		return 0, nil, fmt.Errorf("client: receive: %w", err)
	}
	return rtyp, rpayload, nil
}

// poison marks the connection unusable; callers hold c.mu.
func (c *Client) poison() {
	if !c.closed {
		c.closed = true
		c.nc.Close()
	}
}

// Exec parses and executes one NF² statement on the server-side
// session. BEGIN/COMMIT/ROLLBACK manage the session's transaction;
// every other statement runs inside it while it is open.
func (c *Client) Exec(ctx context.Context, stmt string) (Result, error) {
	typ, payload, err := c.roundTrip(ctx, wire.TQuery, []byte(stmt))
	if err != nil {
		return Result{}, err
	}
	switch typ {
	case wire.TMsg:
		return Result{Message: string(payload)}, nil
	case wire.TRows:
		rel, err := encoding.ReadRelation(bytes.NewReader(payload))
		if err != nil {
			return Result{}, fmt.Errorf("client: decoding result relation: %w", err)
		}
		return Result{Relation: rel}, nil
	case wire.TErr:
		code, msg := wire.SplitErr(payload)
		return Result{}, &ServerError{Code: code, Msg: msg}
	case wire.TBye:
		c.mu.Lock()
		c.poison()
		c.mu.Unlock()
		return Result{}, fmt.Errorf("client: server closed the connection (%s): %w",
			payload, ErrShuttingDown)
	default:
		return Result{}, fmt.Errorf("client: reply frame 0x%02x: %w", typ, ErrProtocol)
	}
}

// Stats fetches the server-wide statistics snapshot
// (pool/WAL/latch-wait counters plus connection accounting).
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	typ, payload, err := c.roundTrip(ctx, wire.TStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	switch typ {
	case wire.TStatsReply:
		var st ServerStats
		if err := json.Unmarshal(payload, &st); err != nil {
			return ServerStats{}, fmt.Errorf("client: decoding stats: %w", err)
		}
		return st, nil
	case wire.TErr:
		code, msg := wire.SplitErr(payload)
		return ServerStats{}, &ServerError{Code: code, Msg: msg}
	default:
		return ServerStats{}, fmt.Errorf("client: stats reply frame 0x%02x: %w", typ, ErrProtocol)
	}
}

// Ping round-trips an empty frame (liveness and latency probe).
func (c *Client) Ping(ctx context.Context) error {
	typ, _, err := c.roundTrip(ctx, wire.TPing, nil)
	if err != nil {
		return err
	}
	if typ != wire.TPong {
		return fmt.Errorf("client: ping reply frame 0x%02x: %w", typ, ErrProtocol)
	}
	return nil
}

// Close ends the connection politely (TQuit, best-effort) and closes
// the socket. The server rolls back any transaction still open on the
// session. Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.nc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := wire.Write(c.nc, wire.TQuit, nil); err == nil {
		// wait for the TBye so the server logs a polite close, but do
		// not insist
		_, _, _ = wire.Read(c.r)
	}
	return c.nc.Close()
}
