package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline's median by which an end-to-end metric may
// worsen; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. It is the one place metric names, units
// and bounds are written down: the program reads it, so a result can
// neither carry a metric the file does not declare nor miss one it does.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) defs(traced bool) []metricDef {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Samples    int               `json:"samples"` // ops inside the timed window
	Metrics    map[string]metric `json:"metrics"`
	Mismatches []string          `json:"mismatches,omitempty"`
	StreamHash string            `json:"stream_hash"`
	FsyncUs    float64           `json:"fsync_probe_us"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// fill turns the measured values into the result's metrics: exactly the
// ones the spec declares for this kind of run, each with its unit. A
// per-layer metric of a layer the workload never enters reads 0.
func (r *result) fill(spec *benchSpec, values map[string]float64) error {
	r.Metrics = make(map[string]metric)
	for _, d := range spec.defs(r.Traced) {
		v, ok := values[d.Name]
		if !ok && !r.Traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
	}
	return nil
}

// driverLine is the one JSON object the contract asks for on the last
// line of standard output.
func (r *result) driverLine() string {
	body, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(body)
}

// environment is where a report was measured. Latencies are this
// sandbox's, not a device's: reads come from the OS cache and fsync is
// as cheap as FsyncProbeUs says.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Filesystem string `json:"filesystem"`
	Commit     string `json:"commit"`
}

func readEnvironment(scratch string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Filesystem: filesystemOf(scratch),
		Commit:     "unknown",
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// the go tool stamps the revision when it builds inside a git
	// checkout; the driver's checkout is not one
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// filesystemOf names the filesystem type of the mount holding dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// report is what `run`, `trace` and `selfcheck` write and `compare`
// reads: every run made, with the environment they were made in.
type report struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []*result   `json:"runs"`
}

func (rp *report) write(path string) error {
	body, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(body, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// values collects one metric's value from every run of a workload.
func (rp *report) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rp.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// printTable prints every metric of every workload by name with its
// unit: the median over the report's runs, and their spread.
func (rp *report) printTable(w io.Writer, spec *benchSpec, traced bool) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tspread\truns\tsamples")
	for _, wl := range spec.Workloads {
		samples := 0
		for _, r := range rp.Runs {
			if r.Workload == wl.Name {
				samples = r.Samples
			}
		}
		for _, d := range spec.defs(traced) {
			v := rp.values(wl.Name, d.Name)
			if len(v) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.1f%%\t%d\t%d\n",
				wl.Name, d.Name, median(v), d.Unit, 100*spread(v), len(v), samples)
		}
	}
	tw.Flush()
}

// compare applies the regression bounds: one row per (workload,
// end-to-end metric) with both medians, their ratio and its base, and a
// verdict. It reports whether any row is worse.
func compare(w io.Writer, spec *benchSpec, base, cand *report) (worse, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tunit\tcand/base\tbound\tspread base\tspread cand\tverdict")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			a, b := base.values(wl.Name, d.Name), cand.values(wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			v := verdict(d, ma, mb, spread(a), spread(b))
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.4f of %.6g\t%.2g\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, d.Name, ma, mb, d.Unit, mb/ma, ma, d.Bound, 100*spread(a), 100*spread(b), v)
		}
	}
	tw.Flush()
	return worse, unresolved
}

// verdict judges a candidate median against a baseline median. Where
// either side's own runs spread wider than the bound the change is
// unresolved, not unchanged.
func verdict(d metricDef, base, cand, spreadBase, spreadCand float64) string {
	change := (cand - base) / base // > 0: the number grew
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spreadBase > d.Bound || spreadCand > d.Bound:
		return "unresolved"
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the benchmark's acceptance check measures spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	if m < 0 {
		m = -m
	}
	return (q3 - q1) / m
}

// percentile reads the p-quantile (nearest rank) of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// median is the middle value (the mean of the two middle ones when the
// count is even), so a median of medians does not favour either side.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
