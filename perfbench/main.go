// Command perfbench is the repository's benchmark. It runs one workload
// (or all of them) against the dgcl library through its public calls,
// checks the outputs, and prints every metric by name with its unit; the
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": V, "unit": U}}}
//
// Usage:
//
//	perfbench --workload train-dense|train-sparse-wire|serve-zipf|all --seed N --seconds S --trace 0|1 [--out FILE]
//	perfbench compare OLD.json NEW.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// reports the per-layer metrics. --out also writes the result, stamped with
// its provenance, for compare. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	rtm "runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricList keeps metrics in the order they were added.
type metricList struct {
	names []string
	vals  map[string]metric
}

func newMetricList() *metricList { return &metricList{vals: map[string]metric{}} }

func (m *metricList) add(name string, v float64, unit string) {
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// result is one workload run.
type result struct {
	workload          string
	metrics           *metricList // reported in the JSON line
	asides            *metricList // printed only: the same figures under workload-specific names
	notes             []string
	checks            []string
	failedChecks      int
	attempted, failed int
	stealShare        float64
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: newMetricList(), asides: newMetricList()}
}

func (r *result) add(name string, v float64, unit string)   { r.metrics.add(name, v, unit) }
func (r *result) aside(name string, v float64, unit string) { r.asides.add(name, v, unit) }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records an output check; a failed check makes the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		r.failedChecks++
	}
	r.checks = append(r.checks, status+" "+fmt.Sprintf(format, args...))
}

// addTail reports the tail percentile of xs as name, printing it under
// alias as well. The percentile is fixed per workload so that it means the
// same thing in every run; the run fails its check if fewer than minBeyond
// samples lie beyond it.
func (r *result) addTail(name, alias string, xs []float64, tail float64) {
	n := len(xs)
	r.check(tailOK(n, tail), "%s.p%g rests on %d samples beyond it (n=%d, need %d)",
		alias, tail*100, beyond(n, tail), n, minBeyond)
	pt := quantile(xs, tail)
	r.add(name, pt, "s")
	r.aside(fmt.Sprintf("%s.p%g", alias, tail*100), pt, "s")
	r.aside(alias+".n", float64(n), "count")
}

func (r *result) correct() bool { return r.failedChecks == 0 }

// provenance stamps a result with what it was measured on.
type provenance struct {
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
}

// summary is the JSON result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out writes and compare reads.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     summary    `json:"result"`
}

// procs is the GOMAXPROCS the benchmark runs at: at most two, and never
// more than the host has, so results from larger hosts stay comparable.
func procs() int {
	n := rtm.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

var workloads = []string{trainDense.name, trainSparseWire.name, serveZipf.name}

func runWorkload(name string, seed int64, seconds float64, traced bool) (*result, error) {
	switch name {
	case trainDense.name:
		return runTrain(trainDense, seed, seconds, traced)
	case trainSparseWire.name:
		return runTrain(trainSparseWire, seed, seconds, traced)
	case serveZipf.name:
		return runServe(serveZipf, seed, seconds, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloads, ", "))
}

func printResult(r *result) {
	for _, n := range r.notes {
		fmt.Printf("%s: %s\n", r.workload, n)
	}
	for _, c := range r.checks {
		fmt.Printf("%s: check %s\n", r.workload, c)
	}
	for _, list := range []*metricList{r.metrics, r.asides} {
		for _, name := range list.names {
			m := list.vals[name]
			fmt.Printf("%s: %-34s %14.6g %s\n", r.workload, name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+" or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	out := flag.String("out", "", "also write the result with its provenance to this file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rtm.GOMAXPROCS(procs())
	prov := provenance{
		Go: rtm.Version(), GOARCH: rtm.GOARCH, GOMAXPROCS: rtm.GOMAXPROCS(0), NProc: rtm.NumCPU(),
		Commit: os.Getenv("PERFBENCH_COMMIT"), Seed: *seed, Workload: *workload, Trace: *trace, Seconds: *seconds,
	}
	if prov.Commit == "" {
		prov.Commit = "unknown"
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	sum := summary{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		r, err := runWorkload(name, *seed, float64(*seconds), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(2)
		}
		printResult(r)
		sum.Correct = sum.Correct && r.correct()
		sum.Attempted += r.attempted
		sum.Failed += r.failed
		for _, mn := range r.metrics.names {
			key := mn
			if len(names) > 1 {
				key = name + "/" + mn
			}
			m := r.metrics.vals[mn]
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", name, mn, m.Value)
				os.Exit(2)
			}
			sum.Metrics[key] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(record{Provenance: prov, Result: sum}, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// errCoreMismatch refuses a comparison across core counts: the workloads
// run one goroutine per simulated GPU, so their times depend on how many
// cores run them.
var errCoreMismatch = errors.New("refusing to compare results taken at different core counts")

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// comparable reports why two records cannot be compared, or nil.
func comparable(a, b provenance) error {
	if a.GOMAXPROCS != b.GOMAXPROCS || a.NProc != b.NProc {
		return fmt.Errorf("%w: GOMAXPROCS %d/nproc %d against GOMAXPROCS %d/nproc %d",
			errCoreMismatch, a.GOMAXPROCS, a.NProc, b.GOMAXPROCS, b.NProc)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("results are of different runs: %s trace %d %ds against %s trace %d %ds",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	return nil
}

// compare prints each metric of NEW beside OLD.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.json NEW.json")
	}
	a, err := readRecord(args[0])
	if err != nil {
		return err
	}
	b, err := readRecord(args[1])
	if err != nil {
		return err
	}
	if err := comparable(a.Provenance, b.Provenance); err != nil {
		return err
	}
	fmt.Printf("old: %s seed %d (%s)\nnew: %s seed %d (%s)\n",
		a.Provenance.Commit, a.Provenance.Seed, a.Provenance.Go, b.Provenance.Commit, b.Provenance.Seed, b.Provenance.Go)
	names := make([]string, 0, len(b.Result.Metrics))
	for n := range b.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		nm := b.Result.Metrics[n]
		om, ok := a.Result.Metrics[n]
		if !ok {
			fmt.Printf("%-34s %14s %14.6g %s\n", n, "-", nm.Value, nm.Unit)
			continue
		}
		change := "-"
		if om.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nm.Value-om.Value)/om.Value)
		}
		fmt.Printf("%-34s %14.6g %14.6g %s %s\n", n, om.Value, nm.Value, nm.Unit, change)
	}
	return nil
}
