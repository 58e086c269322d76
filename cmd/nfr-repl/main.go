// Command nfr-repl is an interactive shell (and script runner) for the
// NF² query language over a canonical-form NFR database.
//
// Usage:
//
//	nfr-repl                 # interactive, over a database held in
//	                         # memory (the same engine as -d, its
//	                         # paged file and log in memory)
//	nfr-repl script.nfq      # execute a script, one statement per line
//	                         # (blank lines and -- comments ignored;
//	                         #  statements may span lines until ';')
//	nfr-repl -d FILE ...     # open the paged database FILE (created if
//	                         # missing); updates are written through the
//	                         # buffer pool and flushed to disk on \save
//	                         # and on exit
//	nfr-repl -d FILE -pool N -readonly
//	                         # tune the buffer pool / open read-only
//
// Transactions: BEGIN; opens a multi-statement transaction on the
// session — every following statement pools under it (visible only to
// this session) until COMMIT; makes them durable as one group-committed
// batch or ROLLBACK; discards them. A transaction still open at exit is
// rolled back.
//
// Extra REPL commands: \save (flush dirty pages — the durability
// point; an unflushed session killed hard loses unevicted pages),
// \quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/query"
)

func main() {
	path := flag.String("d", "", "paged database file to open (created if missing)")
	pool := flag.Int("pool", 0, "buffer-pool capacity in pages (0 = default)")
	readonly := flag.Bool("readonly", false, "open the database read-only")
	flag.Parse()

	sess := query.NewSession()
	if *path != "" {
		opts := []engine.Option{engine.WithPoolPages(*pool)}
		if *readonly {
			opts = append(opts, engine.WithReadOnly())
		}
		db, err := engine.Open(*path, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "open:", err)
			os.Exit(1)
		}
		sess = query.NewSessionOn(db)
		fmt.Printf("opened %s with %d relation(s)\n", *path, len(db.Names()))
	}

	var in io.Reader = os.Stdin
	interactive := true
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}

	code := run(sess, *path != "", in, os.Stdout, interactive)
	if sess.InTx() {
		fmt.Fprintln(os.Stderr, "rolling back open transaction")
		sess.Close()
	}
	if err := sess.DB.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the statements of in; hasFile reports -d.
func run(sess *query.Session, hasFile bool, in io.Reader, out io.Writer, interactive bool) int {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var pending strings.Builder
	prompt := func() {
		if interactive {
			if pending.Len() == 0 {
				fmt.Fprint(out, "nfr> ")
			} else {
				fmt.Fprint(out, "...> ")
			}
		}
	}
	exitCode := 0
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "\\quit", "\\q":
			return exitCode
		case "\\save":
			if !hasFile {
				fmt.Fprintln(out, "no database file (-d) configured")
			} else if err := sess.DB.Flush(); err != nil {
				fmt.Fprintln(out, "save:", err)
			} else {
				fmt.Fprintln(out, "flushed")
			}
			prompt()
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "--") {
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			prompt()
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(pending.String()), ";")
		pending.Reset()
		res, err := sess.Exec(stmt)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			if !interactive {
				exitCode = 1
			}
		} else {
			fmt.Fprintln(out, res)
		}
		prompt()
	}
	if pending.Len() > 0 {
		stmt := strings.TrimSpace(pending.String())
		if stmt != "" {
			res, err := sess.Exec(strings.TrimSuffix(stmt, ";"))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				exitCode = 1
			} else {
				fmt.Fprintln(out, res)
			}
		}
	}
	return exitCode
}
