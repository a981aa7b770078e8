// Command p2pstudy runs the full measurement study — instrumented clients
// on simulated LimeWire and OpenFT universes over a multi-week virtual
// trace — and writes the labelled trace dataset.
//
// Usage:
//
//	p2pstudy -days 30 -queries-per-day 96 -out trace.jsonl [-csv trace.csv]
//	p2pstudy -network limewire -days 7 -out week.jsonl
//	p2pstudy -days 7 -faults canonical -out hostile.jsonl
//	p2pstudy -days 2 -spans spans.jsonl -spans-wall-latency  # then p2pprof spans.jsonl
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2pstudy: ")

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
		workers = flag.Int("workers", 0, "download/scan worker pool size per network (0 = GOMAXPROCS); traces are byte-identical for any value")
		faults  = flag.String("faults", "", "fault-injection profile ("+strings.Join(faultsim.ProfileNames(), ", ")+") or a FaultPlan JSON file; empty or \"off\" disables")

		progress    = flag.Duration("progress", 24*time.Hour, "virtual interval between progress reports (0 disables)")
		spans       = flag.String("spans", "", "optional span-stream output path (JSONL, for cmd/p2pprof)")
		spansWall   = flag.Bool("spans-wall-latency", false, "add measured wall_us durations to spans (breaks span determinism)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /varz, and /debug/pprof on this address during the run")
		profSpec    = flag.String("profile", "", "comma-separated runtime profiles to capture: cpu, heap, mutex")
		profDir     = flag.String("profile-dir", ".", "directory for -profile output (cpu.pprof, heap.pprof, mutex.pprof)")
		filterdURL  = flag.String("filterd", "", "base URL of a running filterd (e.g. http://localhost:8940); the study's trained block list is streamed to it on completion")
		filterdK    = flag.Int("filterd-k", 10, "block-list length trained per network for -filterd (0 = every malicious size)")
	)
	flag.Parse()

	prof, err := startProfiles(*profSpec, *profDir)
	if err != nil {
		log.Fatal(err)
	}
	defer prof.stop()

	if *metricsAddr != "" {
		srv, err := obs.StartServer(*metricsAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics on http://%s/metrics", srv.Addr())
	}

	plan, err := faultsim.Load(*faults)
	if err != nil {
		log.Fatal(err)
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
		log.Fatalf("unknown -network %q (want both, limewire, or openft)", *network)
	}

	study, err := core.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		study.Progress = func(format string, args ...any) {
			log.Printf(format, args...)
		}
	}

	start := time.Now()
	trace, err := study.Run()
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		log.Printf("study complete: %d records over %d trace days (wall time %v)",
			len(trace.Records), trace.Days(), time.Since(start).Round(time.Second))
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteJSONL(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d records)\n", *out, len(trace.Records))

	if *spans != "" {
		sf, err := os.Create(*spans)
		if err != nil {
			log.Fatal(err)
		}
		if err := study.WriteSpans(sf); err != nil {
			log.Fatal(err)
		}
		if err := sf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d spans)\n", *spans, len(study.Spans()))
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
			log.Fatal(err)
		}
	}

	if *csvOut != "" {
		cf, err := os.Create(*csvOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteCSV(cf); err != nil {
			log.Fatal(err)
		}
		if err := cf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
}

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
	resp, err := http.Post(strings.TrimSuffix(baseURL, "/")+"/update", "application/json", bytes.NewReader(body))
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
