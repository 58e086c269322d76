// Command nfr-server serves a paged NFR database file over TCP with
// the internal/wire frame protocol: one query.Session per connection,
// per-connection contexts, a connection limit, an idle timeout, and
// graceful shutdown on SIGINT/SIGTERM (in-flight statements finish,
// idle transactions roll back, the file closes at a committed
// boundary). See docs/server.md for the protocol and lifecycle.
//
// Usage:
//
//	nfr-server -d FILE [-addr HOST:PORT] [-pool N] [-readonly]
//	           [-max-conns N] [-idle DUR] [-drain DUR] [-v]
//
// The listening address is printed to stdout as "listening on
// ADDR" once the listener is bound (use -addr 127.0.0.1:0 to let the
// kernel pick a port and parse the line). A second signal forces an
// immediate close.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

func main() {
	path := flag.String("d", "", "paged database file to serve (created if missing; required)")
	addr := flag.String("addr", "127.0.0.1:4632", "listen address (host:port; port 0 = kernel-assigned)")
	pool := flag.Int("pool", 0, "buffer-pool capacity in pages (0 = default)")
	readonly := flag.Bool("readonly", false, "serve the database read-only")
	maxConns := flag.Int("max-conns", server.DefaultMaxConns, "connection limit (negative = unlimited)")
	idle := flag.Duration("idle", server.DefaultIdleTimeout, "idle-connection timeout (negative = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before forcing")
	verbose := flag.Bool("v", false, "log per-connection events to stderr")
	flag.Parse()

	if *path == "" {
		fmt.Fprintln(os.Stderr, "nfr-server: -d FILE is required")
		os.Exit(2)
	}
	opts := []engine.Option{engine.WithPoolPages(*pool)}
	if *readonly {
		opts = append(opts, engine.WithReadOnly())
	}
	db, err := engine.Open(*path, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	if r, _ := db.RecoveryReport(); r.Sidecar {
		fmt.Printf("recovery: %d batches replayed in %s, %d pages written, %d skipped by the LSN gate, %d torn log bytes discarded, %d orphan pages swept\n",
			r.Log.RecoveredBatches, r.Log.RedoElapsed, r.PagesWritten, r.PagesSkipped, r.Log.TornTailBytes, r.OrphansSwept)
	}

	cfg := server.Config{MaxConns: *maxConns, IdleTimeout: *idle}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "nfr-server: "+format+"\n", args...)
		}
	}
	srv := server.New(db, cfg)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		db.Close()
		os.Exit(1)
	}
	fmt.Printf("listening on %s (%s, %d relations)\n", lis.Addr(), *path, len(db.Names()))

	// Graceful shutdown on the first signal; a second one forces.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan error, 1)
	go func() {
		sig := <-sigCh
		fmt.Printf("%s: draining (budget %s)\n", sig, *drain)
		go func() {
			<-sigCh
			fmt.Println("second signal: forcing close")
			srv.Close()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	serveErr := srv.Serve(lis)
	exit := 0
	if serveErr != nil && serveErr != server.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "serve:", serveErr)
		exit = 1
	} else {
		// Serve returns as soon as the listener closes; wait for the
		// drain to finish before touching the database.
		if err := <-shutdownDone; err != nil {
			fmt.Fprintln(os.Stderr, "shutdown forced:", err)
		}
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		exit = 1
	}
	if exit == 0 {
		fmt.Println("clean shutdown")
	}
	os.Exit(exit)
}
