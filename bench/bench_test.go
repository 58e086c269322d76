package main

import (
	"testing"

	"repro/internal/tuple"
)

// toy runs one workload at toy scale: 120 students, a 300 ms window, a
// twentieth of the fixed-count ops and one set-up.
func toy(t *testing.T, spec *benchSpec, workload string, traced bool) *result {
	t.Helper()
	res, err := runOne(spec, config{workload: workload, seed: 7, seconds: 0.3, trace: traced,
		students: 120, opsScale: 0.05, setups: 1, scratch: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, res.Correct, res.Attempted, res.Failed, res.Mismatches)
	}
	return res
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload and metric BENCHMARK.json names is well-formed and is
// emitted, with its unit, by a run of every workload; a traced run of a
// single-client workload counts the same pages, scans, syncs and misses
// every time.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("malformed metric %+v", d)
		}
	}
	// update.candidate_scans_per_op is not among them: the maintainer's
	// posting lists are Go maps, so how many tuples it examines before it
	// finds the candidate differs by a few in ten thousand from run to run
	exact := []string{"storage.wal_pages_per_op", "device.syncs_per_op", "storage.pool_misses_per_op",
		"update.sink_events_per_op", "update.compositions_per_op", "device.wal_write_bytes_per_op"}
	for _, wl := range spec.Workloads {
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("malformed workload name %q", wl.Name)
		}
		plain := toy(t, spec, wl.Name, false)
		for _, d := range spec.EndToEnd {
			if m, ok := plain.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", wl.Name, d.Name, m)
			}
		}
		first, second := toy(t, spec, wl.Name, true), toy(t, spec, wl.Name, true)
		for _, d := range spec.PerLayer {
			if m, ok := first.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v", wl.Name, d.Name, m)
			}
		}
		if wl.Name == "wire_mixed" {
			continue // two clients interleave, so its counts vary
		}
		for _, name := range exact {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s is %v in one traced run and %v in the next", wl.Name, name, a, b)
			}
		}
	}
}

func TestSeedFixesTheOpStream(t *testing.T) {
	for _, name := range workloadNames {
		a := hashStream(config{workload: name, seed: 3, students: 120})
		b := hashStream(config{workload: name, seed: 3, students: 120})
		c := hashStream(config{workload: name, seed: 4, students: 120})
		if a != b {
			t.Errorf("%s: seed 3 gave stream %s, then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same stream %s", name, a)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d                        metricDef
		base, cand, spreadA, spB float64
		want                     string
	}{
		{lower, 1.0, 1.05, 0.01, 0.01, "same"},
		{lower, 1.0, 1.2, 0.01, 0.01, "worse"},
		{lower, 1.0, 0.8, 0.01, 0.01, "better"},
		{higher, 100, 80, 0.01, 0.01, "worse"},
		{higher, 100, 120, 0.01, 0.01, "better"},
		{higher, 100, 80, 0.2, 0.01, "unresolved"},
		{lower, 1.0, 1.2, 0.01, 0.3, "unresolved"},
	} {
		if got := verdict(c.d, c.base, c.cand, c.spreadA, c.spB); got != c.want {
			t.Errorf("%s %v -> %v (spreads %v, %v): %s, want %s", c.d.Name, c.base, c.cand, c.spreadA, c.spB, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// Students of different wire_mixed connections that share a course set
// and a club set nest into one tuple, so a connection's nested point
// read carries the other connection's rows. Its oracle holds only its
// own students: it must accept that answer, and still refuse one that
// is wrong for the student asked about.
func TestPartialOracleAcceptsCrossBlockTuples(t *testing.T) {
	mine := tuple.FlatOfStrings(studentName(1), "c001", "b01")
	theirs := tuple.FlatOfStrings(studentName(900), "c001", "b01")
	answer := canonicalOf([]tuple.Flat{mine, theirs})
	if answer.Len() != 1 {
		t.Fatalf("the two students nest into %d tuples, want 1", answer.Len())
	}
	text := pointStmt("R1", 1).text
	partial, err := newOracle([]tuple.Flat{mine}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.check(text, answer); err != nil {
		t.Errorf("partial oracle refused a cross-block tuple: %v", err)
	}
	wrong := canonicalOf([]tuple.Flat{theirs, tuple.FlatOfStrings(studentName(1), "c002", "b01")})
	if partial.check(text, wrong) == nil {
		t.Error("partial oracle accepted the wrong course for its own student")
	}
	full, err := newOracle([]tuple.Flat{mine}, false)
	if err != nil {
		t.Fatal(err)
	}
	if full.check(text, answer) == nil {
		t.Error("a full oracle must compare whole tuples")
	}
}
