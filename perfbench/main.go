// Command perfbench is the repository benchmark. It runs one named
// workload against the shipped programs (cmd/p2pstudy, cmd/filterd),
// checks that their output is correct, and prints every metric that
// BENCHMARK.json declares: the end-to-end metrics with tracing off, or the
// per-layer metrics from a separate traced run.
//
//	bash perfbench/run.sh --workload study-clean --seed 1 --seconds 40 --trace 0
//
// run.sh builds the programs and this command from the checkout, then
// runs it from the repository root. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A run
// whose output is wrong prints its failed checks, an empty metric set,
// and exits non-zero. NOTES.md lists the workloads and what each metric
// should move.
//
// -compare a.json,b.json prints two saved results side by side (see
// .bench_build/results) and flags them when their machine stamps differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	root     string // repository root: BENCHMARK.json, perfbench/expect.json
	bin      string // directory holding the built p2pstudy and filterd
	work     string // scratch directory for this run's files
	workload string
	seed     uint64
	seconds  int
	trace    bool
	exp      expect
	declared []specMetric // the metrics this run must print
	log      io.Writer    // progress lines (standard error)
}

// workloads maps each workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	run    func(o *options, r *report) error
	traced func(o *options, r *report) error
}{
	"study-clean":   {func(o *options, r *report) error { return runStudyE2E(o, r, false) }, func(o *options, r *report) error { return runStudyTraced(o, r, false) }},
	"study-faults":  {func(o *options, r *report) error { return runStudyE2E(o, r, true) }, func(o *options, r *report) error { return runStudyTraced(o, r, true) }},
	"filterd-mixed": {runFilterdE2E, runFilterdTraced},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		o       options
		trace   int
		compare string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: study-clean, study-faults, filterd-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 40, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the built p2pstudy and filterd")
	flag.StringVar(&compare, "compare", "", "compare two saved results: a.json,b.json")
	flag.Parse()
	o.trace = trace == 1
	o.log = os.Stderr

	if compare != "" {
		if err := compareResults(os.Stdout, strings.Split(compare, ",")); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		log.Fatalf("need -workload (%s), -seconds >= 1 and -trace 0|1", strings.Join(workloadNames(), ", "))
	}
	sp, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		log.Fatal(err)
	}
	o.declared = sp.declared(o.trace)
	if o.exp, err = loadExpect(filepath.Join(o.root, "perfbench", "expect.json")); err != nil {
		log.Fatal(err)
	}
	o.work = filepath.Join(o.root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		log.Fatal(err)
	}
	r := newReport()
	run := w.run
	if o.trace {
		run = w.traced
	}
	if err := run(&o, r); err != nil {
		r.check(false, "%v", err)
	}
	os.RemoveAll(o.work)

	st := machineStamp(o.root, o.seed)
	ok = r.print(os.Stdout, &o, st)
	if err := r.save(&o, st); err != nil {
		log.Print(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// spec is the part of BENCHMARK.json the benchmark reads back: the
// declared metrics and their units, so every run prints exactly them.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func (s *spec) declared(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// expect holds the correctness bands the output checks use. They live in
// perfbench/expect.json, beside the code that applies them.
type expect struct {
	// LimeWireShare and OpenFTShare bound the malicious share of
	// downloadable responses (the paper: ~68% and ~3%).
	LimeWireShare [2]float64 `json:"limewire_share"`
	OpenFTShare   [2]float64 `json:"openft_share"`
	// FaultShareDelta is how far a faulted run's shares may drift from
	// the clean run of the same seeds.
	FaultShareDelta float64 `json:"fault_share_delta"`
	// SpanCover is the largest relative gap allowed between a query's
	// root span and the sum of its stage spans.
	SpanCover float64 `json:"span_cover"`
	// ExplainedShare bounds the replay layers' summed CPU as a share of
	// the study's own CPU.
	ExplainedShare [2]float64 `json:"explained_share"`
	// RecordDrift is how far, as a share, the record count of two runs of
	// one seed may differ. It should be 0; the wall-clock quiet window
	// that ends each flood's collection moves up to a few percent of the
	// records between same-seed runs today.
	RecordDrift float64 `json:"record_drift"`
}

func loadExpect(path string) (expect, error) {
	var e expect
	b, err := os.ReadFile(path)
	if err != nil {
		return e, fmt.Errorf("reading expectations: %w", err)
	}
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// report collects one run's metrics and output checks.
type report struct {
	order     []string
	units     map[string]string
	values    map[string]summary
	na        map[string]bool
	failures  []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{units: map[string]string{}, values: map[string]summary{}, na: map[string]bool{}}
}

func (r *report) note(name, unit string) {
	if _, ok := r.units[name]; !ok {
		r.order = append(r.order, name)
	}
	r.units[name] = unit
}

// add records a metric from its samples.
func (r *report) add(name, unit string, xs ...float64) {
	r.put(name, unit, summarize(xs))
}

// put records a metric from a finished summary.
func (r *report) put(name, unit string, s summary) {
	r.note(name, unit)
	r.values[name] = s
	delete(r.na, name)
}

// idle marks a metric of a layer that does no work in this workload.
func (r *report) idle(name, unit string) {
	if _, ok := r.values[name]; !ok {
		r.note(name, unit)
		r.na[name] = true
	}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.check(false, "%v", err)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the stamp, the metric table and the result line, and
// reports whether the run is correct. Every declared metric must have
// been produced (or marked idle) with its declared unit.
func (r *report) print(w io.Writer, o *options, st stamp) bool {
	mode := "end-to-end, tracing off"
	if o.trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%d (%s)\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "# %s\n", st)
	res := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		r.check(false, "no operation was attempted")
	}
	for _, d := range o.declared {
		unit, ok := r.units[d.Name]
		switch {
		case !ok:
			r.check(false, "metric %s was not produced", d.Name)
		case unit != d.Unit:
			r.check(false, "metric %s has unit %s, BENCHMARK.json says %s", d.Name, unit, d.Unit)
		}
		v := r.values[d.Name].Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is not finite", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(w, "%-36s %14s %14s %14s %6s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, name := range r.order {
		if r.na[name] {
			fmt.Fprintf(w, "%-36s %14s %14s %14s %6s  %s\n", name, "n/a", "", "", "", r.units[name]+" (idle by design)")
			continue
		}
		s := r.values[name]
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %14.6g %6d  %s\n", name, s.Median, s.Q1, s.Q3, s.N, r.units[name])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	res.Correct = len(r.failures) == 0
	if !res.Correct {
		res.Metrics = map[string]jsonMetric{}
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
	return res.Correct
}

// saved is the full result of one run as kept under .bench_build/results
// for -compare.
type saved struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	Stamp    stamp              `json:"stamp"`
	Metrics  map[string]summary `json:"metrics"`
	Units    map[string]string  `json:"units"`
	Failures []string           `json:"failures,omitempty"`
}

func (r *report) save(o *options, st stamp) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(saved{o.workload, o.seed, o.trace, st, r.values, r.units, r.failures}, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareResults prints two saved results side by side. Results from
// different machines are flagged: their numbers are not comparable.
func compareResults(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two files, got %d", len(paths))
	}
	var rs [2]saved
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if a, b := rs[0].Stamp.machine(), rs[1].Stamp.machine(); a != b {
		fmt.Fprintf(w, "MACHINE MISMATCH: results are not comparable\n  a: %s\n  b: %s\n", a, b)
	}
	if rs[0].Workload != rs[1].Workload || rs[0].Traced != rs[1].Traced {
		fmt.Fprintf(w, "WORKLOAD MISMATCH: %s (traced=%v) vs %s (traced=%v)\n", rs[0].Workload, rs[0].Traced, rs[1].Workload, rs[1].Traced)
	}
	var names []string
	for n := range rs[0].Metrics {
		if _, ok := rs[1].Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s  %s\n", "metric", "a median", "b median", "b/a", "unit")
	for _, n := range names {
		a, b := rs[0].Metrics[n].Median, rs[1].Metrics[n].Median
		ratio := math.NaN()
		if a != 0 {
			ratio = b / a
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9.3f  %s\n", n, a, b, ratio, rs[0].Units[n])
	}
	return nil
}
