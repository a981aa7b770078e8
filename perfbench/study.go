package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/dataset"
)

// studyUnit is the work of one p2pstudy invocation: both networks on the
// default universes, three virtual days of 80 queries each per network.
// That is the shape whose cost was measured before this benchmark
// existed (4.3-4.6s wall on 1.9-2.0s CPU, 2 cores), and close to the
// shipped 96 queries per day, so set-up is about a fifth of a run's wall
// time and a faulted run drains its pipeline at a day barrier every 80
// queries, as a full-length study does. NOTES.md has the measurements.
// A run measures several such studies, each on its own universe seed
// derived from the benchmark seed, and reports their medians.
var studyUnit = struct{ days, perDay int }{days: 3, perDay: 80}

// studyNominal is roughly how long one study unit takes, clean and
// faulted, on a 2-core machine; it turns -seconds into a fixed study
// count so that a run's inputs depend only on the seed and the run length.
var studyNominal = map[bool]float64{false: 4.5, true: 4.8}

// faultPlan is study-faults' fault profile: faultsim's canonical profile
// without slow-loris. A slow-loris stall costs a fixed 2s of wall time
// and a run sees only a handful, so their count alone would set the
// workload's wall time and make it vary by a quarter from seed to seed.
func faultPlan(o *options) string { return filepath.Join(o.root, "perfbench", "faults.json") }

// shareChecks is how many of study-faults' seeds are also run clean, after
// the measured window, to hold the faulted malware shares to the clean ones.
const shareChecks = 2

// subSeed is the universe seed of the j-th study of a run.
func subSeed(seed uint64, j int) uint64 { return seed*64 + uint64(j) + 1 }

func studyCount(faulted bool, seconds int) int {
	n := int(float64(seconds)/studyNominal[faulted] + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// studyRun is the outcome of one p2pstudy child process.
type studyRun struct {
	wall   float64   // seconds, spawn to exit
	cpu    float64   // user+sys seconds (rusage)
	rssMB  float64   // peak RSS
	setup  float64   // seconds, spawn until the later network starts querying
	dayLat []float64 // seconds per virtual day after the first, per network
	trace  *dataset.Trace
}

var progressLine = regexp.MustCompile(`^p2pstudy: (limewire|openft): day [0-9.]+: `)

// runStudy runs p2pstudy on one universe seed. It passes only flags that
// describe the work (seed, days, queries per day, network, fault
// profile) plus the output paths; spans, when set, adds the traced
// outputs.
func runStudy(o *options, seed uint64, faulted bool, spans string) (*studyRun, error) {
	out := filepath.Join(o.work, fmt.Sprintf("trace-%d.jsonl", seed))
	args := []string{
		"-seed", fmt.Sprint(seed),
		"-days", fmt.Sprint(studyUnit.days),
		"-queries-per-day", fmt.Sprint(studyUnit.perDay),
		"-network", "both",
		"-out", out,
	}
	if faulted {
		args = append(args, "-faults", faultPlan(o))
	}
	if spans != "" {
		args = append(args, "-spans", spans, "-spans-wall-latency")
	}
	cmd := exec.Command(filepath.Join(o.bin, "p2pstudy"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting p2pstudy: %w", err)
	}
	res := &studyRun{}
	first := map[string]time.Duration{}
	days := map[string][]float64{}
	last := map[string]time.Time{}
	var tail []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		now := time.Now()
		line := sc.Text()
		if m := progressLine.FindStringSubmatch(line); m != nil {
			// The first day also carries the set-up, so latency is
			// taken between successive progress lines of a network.
			if prev, ok := last[m[1]]; ok {
				days[m[1]] = append(days[m[1]], now.Sub(prev).Seconds())
			} else {
				first[m[1]] = now.Sub(start)
			}
			last[m[1]] = now
			continue
		}
		if tail = append(tail, line); len(tail) > 5 {
			tail = tail[1:]
		}
	}
	werr := cmd.Wait()
	res.wall = time.Since(start).Seconds()
	if werr != nil {
		return nil, fmt.Errorf("p2pstudy -seed %d: %w: %v", seed, werr, tail)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	res.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	res.rssMB = float64(ru.Maxrss) / 1024
	// A network starts querying one day before its first progress line;
	// that day is taken as long as its median later day. Everything
	// before it is the program's set-up: process start, NewStudy's
	// scanner, and the network's universe build, client start and
	// connect. The networks set up concurrently; the later one counts.
	for nw, t := range first {
		if d := days[nw]; len(d) > 0 {
			res.setup = math.Max(res.setup, t.Seconds()-summarize(d).Median)
			res.dayLat = append(res.dayLat, d...)
		}
	}
	if res.setup <= 0 {
		return nil, fmt.Errorf("p2pstudy -seed %d: no set-up time in its progress output: %v", seed, tail)
	}
	f, err := os.Open(out)
	if err != nil {
		return nil, err
	}
	res.trace, err = dataset.ReadJSONL(f)
	f.Close()
	os.Remove(out)
	if err != nil {
		return nil, fmt.Errorf("p2pstudy -seed %d wrote an unreadable trace: %w", seed, err)
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// shares pools the malware prevalence of several traces per network.
type shares map[dataset.Network]*analysis.Prevalence

func (s shares) add(tr *dataset.Trace) {
	for nw, p := range analysis.MalwarePrevalence(tr) {
		acc := s[nw]
		if acc == nil {
			acc = &analysis.Prevalence{}
			s[nw] = acc
		}
		acc.Downloadable += p.Downloadable
		acc.Labelled += p.Labelled
		acc.Malicious += p.Malicious
		if acc.Labelled > 0 {
			acc.Share = float64(acc.Malicious) / float64(acc.Labelled)
		}
	}
}

// checkTrace applies the per-trace output checks: both networks are
// present and their malware shares fall within the paper's bands.
func checkTrace(r *report, e expect, seed uint64, tr *dataset.Trace) {
	prev := analysis.MalwarePrevalence(tr)
	for _, c := range []struct {
		nw   dataset.Network
		band [2]float64
	}{{dataset.LimeWire, e.LimeWireShare}, {dataset.OpenFT, e.OpenFTShare}} {
		p := prev[c.nw]
		r.check(tr.QueriesSent[c.nw] > 0 && len(tr.ByNetwork(c.nw)) > 0, "seed %d: trace has no %s records", seed, c.nw)
		r.check(p.Labelled > 0 && p.Share >= c.band[0] && p.Share <= c.band[1],
			"seed %d: %s malware share %.3f (%d labelled) outside [%.2f, %.2f]", seed, c.nw, p.Share, p.Labelled, c.band[0], c.band[1])
	}
}

// opsFailedPct is the share of downloadable responses whose record
// carries a download error.
func opsFailedPct(trs []*dataset.Trace) float64 {
	var dl, bad int
	for _, tr := range trs {
		for i := range tr.Records {
			if rec := &tr.Records[i]; rec.Downloadable {
				dl++
				if rec.DownloadError != "" {
					bad++
				}
			}
		}
	}
	if dl == 0 {
		return 0
	}
	return 100 * float64(bad) / float64(dl)
}

// runStudyE2E is the end-to-end run of study-clean and study-faults.
func runStudyE2E(o *options, r *report, faulted bool) error {
	n := studyCount(faulted, o.seconds)
	fmt.Fprintf(o.log, "perfbench: %d p2pstudy runs\n", n)
	var setups, walls, cpus, rss, days []float64
	var trs []*dataset.Trace
	checked := shares{} // faulted shares of the first shareChecks seeds
	for j := 0; j < n; j++ {
		seed := subSeed(o.seed, j)
		res, err := runStudy(o, seed, faulted, "")
		r.op(err)
		if err != nil {
			continue
		}
		checkTrace(r, o.exp, seed, res.trace)
		setups = append(setups, res.setup)
		walls = append(walls, res.wall)
		cpus = append(cpus, res.cpu)
		rss = append(rss, res.rssMB)
		days = append(days, res.dayLat...)
		trs = append(trs, res.trace)
		if j < shareChecks {
			checked.add(res.trace)
		}
	}
	if len(trs) == 0 {
		return fmt.Errorf("no p2pstudy run succeeded")
	}
	r.add("setup_s", "s", setups...)
	r.add("wall_s", "s", walls...)
	r.add("cpu_s", "s", cpus...)
	r.add("peak_rss_mb", "MiB", rss...)
	r.add("lat_p50_ms", "ms", scale(days, 1000)...)
	r.put("lat_tail_ms", "ms", tail(scale(days, 1000), 90))
	r.add("study_s", "s", walls...)
	r.add("ops_failed_pct", "%", opsFailedPct(trs))

	// Output checks that need more runs, outside the measured window.
	if !faulted {
		again, err := runStudy(o, subSeed(o.seed, 0), false, "")
		r.op(err)
		if err == nil {
			a, b := float64(len(trs[0].Records)), float64(len(again.trace.Records))
			drift := 100 * math.Abs(b-a) / a
			r.add("record_count_drift_pct", "%", drift)
			r.check(drift <= 100*o.exp.RecordDrift, "seed %d: record count changed between runs: %.0f then %.0f (allowed %.0f%%)",
				subSeed(o.seed, 0), a, b, 100*o.exp.RecordDrift)
		}
		return nil
	}
	clean := shares{}
	for j := 0; j < len(trs) && j < shareChecks; j++ {
		res, err := runStudy(o, subSeed(o.seed, j), false, "")
		r.op(err)
		if err == nil {
			clean.add(res.trace)
		}
	}
	checkFaultShares(r, o.exp, checked, clean)
	return nil
}

// checkFaultShares holds the faulted headline shares to within
// FaultShareDelta of the clean shares of the same seeds.
func checkFaultShares(r *report, e expect, faulted, clean shares) {
	for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
		f, c := faulted[nw], clean[nw]
		if f == nil || c == nil {
			r.check(false, "%s: no labelled responses to compare", nw)
			continue
		}
		d := f.Share - c.Share
		r.check(d <= e.FaultShareDelta && -d <= e.FaultShareDelta,
			"%s: faulted malware share %.4f is %.4f from the clean share %.4f (allowed %.2f)", nw, f.Share, d, c.Share, e.FaultShareDelta)
	}
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
