// Command nfr-repro reproduces the paper: its figures and worked
// examples in the paper's tabular notation, the theorem sweeps, the
// Theorem A-4 update-cost table, and the compression, 4NF-join and
// on-disk footprint claims.
//
// Usage:
//
//	nfr-repro [fig1|fig2|fig3|ex1|ex2|ex3|t1|t2|t3|t4|t5|a4|c1|c2|c3|all]
//
// With no argument, everything is printed.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	what := "all"
	if len(os.Args) > 1 {
		what = os.Args[1]
	}
	run := experiments.RunAll
	if what != "all" {
		run = nil
		names := make([]string, 0, len(experiments.Artifacts))
		for _, a := range experiments.Artifacts {
			names = append(names, a.Name)
			if a.Name == what {
				run = a.Run
			}
		}
		if run == nil {
			fmt.Fprintf(os.Stderr, "unknown artifact %q (want %s|all)\n", what, strings.Join(names, "|"))
			os.Exit(2)
		}
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
