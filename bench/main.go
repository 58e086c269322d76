// Command nfr-spine is the benchmark of the NFR engine: four workloads,
// six end-to-end metrics and a per-layer trace. BENCHMARK.json at the
// root of the repository declares them; README.md in this directory
// says why each exists and how to read the output.
//
//	nfr-spine --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
//	nfr-spine run      [flags]     every end-to-end metric of every workload, --runs times each
//	nfr-spine trace    [flags]     every per-layer metric, spans to bench/out/
//	nfr-spine selfcheck [flags]    run twice, compare the two
//	nfr-spine compare  A.json B.json   apply the regression bounds
//
// All forms share one set of flags: --workload, --seed, --seconds,
// --trace, --runs and --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

const (
	specFile   = "BENCHMARK.json"
	scratchDir = ".bench_build/scratch"
	outDir     = "bench/out"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: nfr-spine run|trace|compare|selfcheck, or --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fatal(fmt.Errorf("run from the root of the repository: %w", err))
	}
	var code int
	switch cmd := os.Args[1]; {
	case strings.HasPrefix(cmd, "-"):
		code, err = driverRun(spec, os.Args[1:])
	case cmd == "run" || cmd == "trace":
		code, err = runAll(spec, cmd == "trace", os.Args[2:])
	case cmd == "compare":
		code, err = compareFiles(spec, os.Args[2:])
	case cmd == "selfcheck":
		code, err = selfcheck(spec, os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nfr-spine:", err)
	os.Exit(1)
}

// options are the flags every form of the command takes.
type options struct {
	workload string // "" = every workload (the driver's form names one)
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string
}

// parseOptions reads the flags. traced and runs are what the subcommand
// defaults to: `trace` is `run --trace 1 --runs 1`.
func parseOptions(spec *benchSpec, args []string, traced bool, runs int) (*options, error) {
	fs := flag.NewFlagSet("nfr-spine", flag.ContinueOnError)
	var o options
	trace := 0
	if traced {
		trace = 1
	}
	fs.StringVar(&o.workload, "workload", "", "one of the workloads in BENCHMARK.json (default: each in turn)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the input generator; run k of a workload uses seed+k")
	fs.Float64Var(&o.seconds, "seconds", float64(spec.RunSeconds), "length of the timed window")
	fs.IntVar(&trace, "trace", trace, "1 = report the per-layer metrics of a traced run")
	fs.IntVar(&o.runs, "runs", runs, "runs per workload (their spread decides unresolved)")
	fs.StringVar(&o.out, "out", "", "also write the report as JSON to this file")
	err := fs.Parse(args)
	o.trace = trace == 1
	return &o, err
}

func (o *options) config(workload string, k int) config {
	cfg := config{workload: workload, seed: o.seed + int64(k), seconds: o.seconds, trace: o.trace, scratch: scratchDir}
	if o.trace {
		cfg.traceOut = filepath.Join(outDir, workload+".trace.json")
	}
	return cfg
}

// driverRun is one run of one workload; its last line of output is the
// result object the driver reads.
func driverRun(spec *benchSpec, args []string) (int, error) {
	o, err := parseOptions(spec, args, false, 1)
	if err != nil {
		return 2, nil
	}
	res, err := runOne(spec, o.config(o.workload, 0))
	if err != nil {
		return 1, err
	}
	for _, m := range res.Mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	fmt.Println(res.driverLine())
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// suite runs every workload o.runs times and gathers the results.
func suite(spec *benchSpec, o *options) (*report, error) {
	rp := &report{Env: readEnvironment(scratchDir), Seed: o.seed, Seconds: o.seconds}
	for _, wl := range spec.Workloads {
		if o.workload != "" && o.workload != wl.Name {
			continue
		}
		for k := 0; k < o.runs; k++ {
			cfg := o.config(wl.Name, k)
			fmt.Fprintf(os.Stderr, "%s: seed %d, %.0f s ...\n", wl.Name, cfg.seed, cfg.seconds)
			res, err := runOne(spec, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.Name, err)
			}
			rp.Runs = append(rp.Runs, res)
		}
	}
	return rp, nil
}

func (rp *report) failedRuns() int {
	n := 0
	for _, r := range rp.Runs {
		if !r.Correct {
			n++
			for _, m := range r.Mismatches {
				fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", r.Workload, r.Seed, m)
			}
		}
	}
	return n
}

// runAll is `run` and `trace`: the table, then the report as JSON.
func runAll(spec *benchSpec, traced bool, args []string) (int, error) {
	runs := 3
	if traced {
		runs = 1
	}
	o, err := parseOptions(spec, args, traced, runs)
	if err != nil {
		return 2, nil
	}
	rp, err := suite(spec, o)
	if err != nil {
		return 1, err
	}
	rp.printTable(os.Stdout, spec, o.trace)
	body, _ := json.Marshal(rp)
	fmt.Println(string(body))
	if o.out != "" {
		if err := rp.write(o.out); err != nil {
			return 1, err
		}
	}
	if o.trace {
		fmt.Fprintf(os.Stderr, "spans written to %s/<workload>.trace.json\n", outDir)
	}
	if rp.failedRuns() > 0 {
		return 1, nil
	}
	return 0, nil
}

func compareFiles(spec *benchSpec, args []string) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("usage: compare BASE.json CANDIDATE.json")
	}
	base, err := readReport(args[0])
	if err != nil {
		return 1, err
	}
	cand, err := readReport(args[1])
	if err != nil {
		return 1, err
	}
	worse, unresolved := compare(os.Stdout, spec, base, cand)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1, nil
	}
	return 0, nil
}

// selfcheck runs the whole benchmark twice on the same code and holds
// the second set of runs against the first: a benchmark that cannot
// agree with itself cannot judge a change.
func selfcheck(spec *benchSpec, args []string) (int, error) {
	o, err := parseOptions(spec, args, false, 3)
	if err != nil {
		return 2, nil
	}
	first, err := suite(spec, o)
	if err != nil {
		return 1, err
	}
	second, err := suite(spec, o)
	if err != nil {
		return 1, err
	}
	worse, unresolved := compare(os.Stdout, spec, first, second)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse+unresolved+first.failedRuns()+second.failedRuns() > 0 {
		return 1, nil
	}
	return 0, nil
}
