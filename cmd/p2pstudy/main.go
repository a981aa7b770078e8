// Command p2pstudy runs the full measurement study — instrumented clients
// on simulated LimeWire and OpenFT universes over a multi-week virtual
// trace — and writes the labelled trace dataset.
//
// Usage:
//
//	p2pstudy -days 30 -queries-per-day 96 -out trace.jsonl [-csv trace.csv]
//	p2pstudy -network limewire -days 7 -out week.jsonl
//	p2pstudy -days 7 -faults canonical -out hostile.jsonl
//	p2pstudy -days 2 -spans spans.jsonl -spans-wall-latency  # then p2panalyze spans spans.jsonl
//	p2pstudy -days 2 -profile cpu,heap -profile-dir prof
//	p2pstudy -days 7 -filterd http://localhost:8940 -filterd-k 10
//
// With -metrics-addr the server also exposes net/http/pprof under
// /debug/pprof/ for live profiling. With -filterd the finished study
// trains the paper's size filter on its own trace and streams the block
// list into a running filterd (cmd/filterd) via the daemon's /update API.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"p2pmalware/internal/core"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
)

// profiler drives runtime/pprof collection for the run: -profile names the
// profiles (cpu, heap, mutex) and -profile-dir the output directory.
type profiler struct {
	dir     string
	cpuFile *os.File
	heap    bool
	mutex   bool
}

func startProfiles(spec, dir string) (*profiler, error) {
	p := &profiler{dir: dir}
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "":
		case "cpu":
			f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			p.cpuFile = f
		case "heap":
			p.heap = true
		case "mutex":
			p.mutex = true
			runtime.SetMutexProfileFraction(5)
		default:
			return nil, fmt.Errorf("unknown -profile %q (want cpu, heap, mutex)", name)
		}
	}
	return p, nil
}

func (p *profiler) stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			log.Print(err)
		}
		fmt.Printf("wrote %s\n", p.cpuFile.Name())
	}
	if p.heap {
		p.write("heap")
	}
	if p.mutex {
		p.write("mutex")
	}
}

func (p *profiler) write(name string) {
	path := filepath.Join(p.dir, name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	if name == "heap" {
		runtime.GC() // capture a settled live set
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		log.Print(err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

// The flags. checkFlags rejects values outside their ranges before run
// builds anything.
var (
	days    = flag.Int("days", 30, "virtual trace length in days")
	perDay  = flag.Int("queries-per-day", 96, "queries issued per day per network")
	seed    = flag.Uint64("seed", 2006, "simulation seed")
	network = flag.String("network", "both", "network to measure: both, limewire, openft")
	out     = flag.String("out", "trace.jsonl", "output trace path (JSONL)")
	csvOut  = flag.String("csv", "", "optional CSV export path")
	churn   = flag.Float64("churn", 0, "fraction of honest LimeWire leaves replaced per virtual day")
	fake    = flag.Float64("fake-files", 0, "fraction of honest downloadable shares that are decoys (size lies)")
	quiet   = flag.Bool("quiet", false, "suppress progress output")
	workers = flag.Int("workers", 0, "transfers in flight per network (0 = 16); traces are byte-identical for any value")
	faults  = flag.String("faults", "", "fault-injection profile ("+strings.Join(faultsim.ProfileNames(), ", ")+") or a FaultPlan JSON file; empty or \"off\" disables")

	progress    = flag.Duration("progress", 24*time.Hour, "virtual interval between progress reports (0 disables)")
	spans       = flag.String("spans", "", "optional span-stream output path (JSONL, for p2panalyze spans)")
	spansWall   = flag.Bool("spans-wall-latency", false, "add measured wall_us durations to spans (breaks span determinism)")
	metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /varz, and /debug/pprof on this address during the run")
	profSpec    = flag.String("profile", "", "comma-separated runtime profiles to capture: cpu, heap, mutex")
	profDir     = flag.String("profile-dir", ".", "directory for -profile output (cpu.pprof, heap.pprof, mutex.pprof)")
	filterdURL  = flag.String("filterd", "", "base URL of a running filterd (e.g. http://localhost:8940); the study's trained block list is streamed to it on completion")
	filterdK    = flag.Int("filterd-k", 10, "block-list length trained per network for -filterd (0 = every malicious size)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2pstudy: ")
	flag.Parse()
	if err := checkFlags(*days, *perDay, *workers, *filterdK, *churn, *fake); err != nil {
		fmt.Fprintf(os.Stderr, "p2pstudy: %v\n", err)
		os.Exit(2)
	}

	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run carries out the study the flags describe. A failure returns rather
// than exits, so the deferred profile stops and metrics-server close run
// first: a failed run keeps its profiles.
func run() error {
	prof, err := startProfiles(*profSpec, *profDir)
	if err != nil {
		return err
	}
	defer prof.stop()

	if *metricsAddr != "" {
		srv, err := obs.StartServer(*metricsAddr, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("metrics on http://%s/metrics", srv.Addr())
	}

	plan, err := faultsim.Load(*faults)
	if err != nil {
		return err
	}

	cfg := core.StudyConfig{
		Seed: *seed, Days: *days, QueriesPerDay: *perDay,
		ChurnPerDay: *churn, Workers: *workers,
		ProgressEvery: *progress, SpanWallLatency: *spansWall,
		Faults: plan,
	}
	switch *network {
	case "both":
		cfg.LimeWire = &netsim.LimeWireConfig{Seed: *seed, FakeFileShare: *fake}
		cfg.OpenFT = &netsim.OpenFTConfig{Seed: *seed}
	case "limewire":
		cfg.LimeWire = &netsim.LimeWireConfig{Seed: *seed, FakeFileShare: *fake}
	case "openft":
		cfg.OpenFT = &netsim.OpenFTConfig{Seed: *seed}
	default:
		return fmt.Errorf("unknown -network %q (want both, limewire, or openft)", *network)
	}

	study, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	if !*quiet {
		study.Progress = func(format string, args ...any) {
			log.Printf(format, args...)
		}
	}

	start := time.Now()
	trace, err := study.Run()
	if err != nil {
		return err
	}
	if !*quiet {
		log.Printf("study complete: %d records over %d trace days (wall time %v)",
			len(trace.Records), trace.Days(), time.Since(start).Round(time.Millisecond))
	}

	if err := writeFile(*out, trace.WriteJSONL); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d records)\n", *out, len(trace.Records))

	if *spans != "" {
		all := study.Spans()
		if err := writeFile(*spans, func(w io.Writer) error { return obs.WriteSpansJSONL(w, all) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans)\n", *spans, len(all))
	}

	if *filterdURL != "" {
		var networks []dataset.Network
		if cfg.LimeWire != nil {
			networks = append(networks, dataset.LimeWire)
		}
		if cfg.OpenFT != nil {
			networks = append(networks, dataset.OpenFT)
		}
		if err := pushBlockList(*filterdURL, trace, networks, *filterdK); err != nil {
			return err
		}
	}

	if *csvOut != "" {
		if err := writeFile(*csvOut, trace.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	return nil
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkFlags rejects flag values outside the ranges the study accepts, so a
// mistyped flag fails before anything is built. StudyConfig maps zero
// Days and QueriesPerDay to defaults for library callers; on the command
// line they are mistakes.
func checkFlags(days, perDay, workers, filterdK int, churn, fake float64) error {
	switch {
	case days < 1:
		return fmt.Errorf("-days %d is below 1", days)
	case perDay < 1:
		return fmt.Errorf("-queries-per-day %d is below 1", perDay)
	case !(churn >= 0 && churn <= 1):
		return fmt.Errorf("-churn %v is outside [0, 1]", churn)
	case !(fake >= 0 && fake <= 1):
		return fmt.Errorf("-fake-files %v is outside [0, 1]", fake)
	case workers < 0:
		return fmt.Errorf("-workers %d is negative (0 = 16 transfers)", workers)
	case filterdK < 0:
		return fmt.Errorf("-filterd-k %d is negative (0 = every malicious size)", filterdK)
	}
	return nil
}

// filterdTimeout bounds the whole block-list push, reply included, so a
// daemon that accepts the connection and never answers cannot keep the
// finished study from exiting.
const filterdTimeout = 5 * time.Second

// pushBlockList trains the paper's size filter on the finished trace (one
// filter per measured network, k most common malicious sizes each) and
// streams the union of their block lists into a running filterd via its
// /update API — the deployment loop the ROADMAP describes: studies feed
// the daemon, the daemon serves the verdicts.
func pushBlockList(baseURL string, trace *dataset.Trace, networks []dataset.Network, k int) error {
	var sizes []int64
	for _, nw := range networks {
		sizes = append(sizes, filter.TrainSizeFilter(trace, nw, k).Sizes()...)
	}
	if len(sizes) == 0 {
		log.Print("filterd: no malicious sizes in trace, nothing to push")
		return nil
	}
	body, err := json.Marshal(map[string][]int64{"add": sizes})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: filterdTimeout}
	resp, err := client.Post(strings.TrimSuffix(baseURL, "/")+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("filterd update: %w", err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("filterd update: %s: %s", resp.Status, strings.TrimSpace(string(reply)))
	}
	fmt.Printf("pushed %d block-list sizes to %s: %s", len(sizes), baseURL, string(reply))
	return nil
}
