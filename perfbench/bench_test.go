package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/dataset"
)

// buildPrograms builds p2pstudy and filterd from the repository into a
// temporary directory.
func buildPrograms(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/p2pstudy", "./cmd/filterd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building programs: %v\n%s", err, out)
	}
	return bin
}

func tinyOptions(t *testing.T, bin, workload string, traced bool) *options {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpect("expect.json")
	if err != nil {
		t.Fatal(err)
	}
	return &options{root: "..", bin: bin, work: t.TempDir(), workload: workload, seed: 1, seconds: 1,
		trace: traced, exp: exp, declared: sp.declared(traced), log: io.Discard}
}

// shrinkStudies makes every p2pstudy run two virtual days of four
// queries for the duration of a test.
func shrinkStudies(t *testing.T) {
	saved := studyUnit
	studyUnit.days, studyUnit.perDay = 2, 4
	t.Cleanup(func() { studyUnit = saved })
}

// TestWorkloadsTiny runs every workload, end to end and traced, at a
// tiny size and checks that every declared metric is printed with its
// declared unit, in the table and in the result line.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := buildPrograms(t)
	shrinkStudies(t)
	for _, wl := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, traced), func(t *testing.T) {
				o := tinyOptions(t, bin, wl, traced)
				r := newReport()
				w := workloads[wl]
				run := w.run
				if traced {
					run = w.traced
				}
				if err := run(o, r); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if !r.print(&out, o, stamp{}) {
					t.Fatalf("run not correct:\n%s", out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if len(res.Metrics) != len(o.declared) || res.Attempted < 1 {
					t.Errorf("result has %d metrics and %d attempted; want %d metrics", len(res.Metrics), res.Attempted, len(o.declared))
				}
				for _, d := range o.declared {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !strings.Contains(out.String(), "\n"+d.Name+" ") {
						t.Errorf("metric %s missing from the table", d.Name)
					}
				}
			})
		}
	}
}

// TestChecksFire feeds the output checks deliberately wrong expectations
// and requires each to fail the run.
func TestChecksFire(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := buildPrograms(t)
	shrinkStudies(t)
	o := tinyOptions(t, bin, "study-clean", false)

	res, err := runStudy(o, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	wrong := o.exp
	wrong.LimeWireShare = [2]float64{0.99, 1}
	r := newReport()
	checkTrace(r, wrong, 1, res.trace)
	if len(r.failures) == 0 {
		t.Error("a LimeWire band of [0.99, 1] passed the prevalence check")
	}

	lwOnly := dataset.NewTrace()
	for _, rec := range res.trace.ByNetwork(dataset.LimeWire) {
		lwOnly.Add(rec)
	}
	lwOnly.QueriesSent[dataset.LimeWire] = res.trace.QueriesSent[dataset.LimeWire]
	r = newReport()
	checkTrace(r, o.exp, 1, lwOnly)
	if !failedWith(r, "trace has no openft records") {
		t.Errorf("a trace without OpenFT passed the both-networks check: %q", r.failures)
	}

	drifting := tinyOptions(t, bin, "study-clean", false)
	drifting.exp.RecordDrift = -1
	r = newReport()
	if err := runStudyE2E(drifting, r, false); err != nil {
		t.Fatal(err)
	}
	if !failedWith(r, "record count changed") {
		t.Errorf("a record drift allowance of -1 passed the same-seed check: %q", r.failures)
	}

	traced := tinyOptions(t, bin, "study-clean", true)
	traced.exp.SpanCover = -1
	traced.exp.ExplainedShare = [2]float64{2, 3}
	r = newReport()
	if err := runStudyTraced(traced, r, false); err != nil {
		t.Fatal(err)
	}
	if !failedWith(r, "stage spans miss") {
		t.Errorf("a span cover allowance of -1 passed the span-cover check: %q", r.failures)
	}
	if !failedWith(r, "replay layers account for") {
		t.Errorf("an explained-share band of [2, 3] passed the accounting check: %q", r.failures)
	}

	clean, drifted := shares{}, shares{}
	clean.add(res.trace)
	drifted.add(res.trace)
	drifted[dataset.LimeWire].Share += 0.05
	r = newReport()
	checkFaultShares(r, o.exp, drifted, clean)
	if len(r.failures) == 0 {
		t.Error("a 5-point share drift passed the fault-share check")
	}

	fo := tinyOptions(t, bin, "filterd-mixed", false)
	r = newReport()
	in, err := makeFilterdInputs(fo, r)
	if err != nil {
		t.Fatal(err)
	}
	in.probes[7].block = !in.probes[7].block // a wrong oracle for one probe
	d, _, err := spawnFilterd(fo, in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runSession(d, in, time.Second)
	if err != nil {
		d.stop()
		t.Fatal(err)
	}
	checkSession(r, d, s, d.version+uint64(s.updates)+1) // and a wrong final version
	d.stop()
	if len(r.failures) < 2 {
		t.Errorf("a flipped oracle and a wrong version gave failures %q", r.failures)
	}
	var out bytes.Buffer
	if r.print(&out, fo, stamp{}) || !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), `"metrics":{}`) {
		t.Errorf("a failed run must print correct=false and no metrics:\n%s", out.String())
	}
}

// failedWith reports whether one of the report's failed checks says msg.
func failedWith(r *report, msg string) bool {
	for _, f := range r.failures {
		if strings.Contains(f, msg) {
			return true
		}
	}
	return false
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 50); p != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", p)
	}
}
