// Command benchdiff compares two benchjson summaries (BENCH_N.json) and
// fails when a headline benchmark regressed. It is the CI bench-regression
// gate: the bench pipeline appends a new BENCH_N.json per roadmap stage,
// and this command diffs the newest file against its predecessor so a
// change that quietly doubles the scanner's per-byte cost or the study
// engine's wall time breaks the build instead of landing silently.
//
// Usage:
//
//	benchdiff [-threshold 15] [-headline name,name,...] [old.json new.json]
//
// With no positional arguments the command discovers BENCH_<n>.json files
// in the working directory and compares the two highest n. Only the named
// headline benchmarks gate; every benchmark present in both files is
// reported so drift outside the gate stays visible. Two properties gate:
//
//   - ns/op, compared against the threshold percentage; and
//   - allocs/op, also against the threshold — except that a headline
//     benchmark whose old summary shows zero allocs/op must stay at zero:
//     the first heap allocation on a proven zero-alloc hot path is a
//     regression no matter how cheap, because it voids the AllocsPerRun
//     guarantees the trace and wire layers advertise.
//
// A headline benchmark missing from either file is a warning, not a
// failure: stages add and retire benchmarks, and the gate must not block
// the stage that introduces one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Summary mirrors cmd/benchjson's per-benchmark output shape.
type Summary struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Runs        int                `json:"runs"`
}

// defaultHeadline names the benchmarks that gate merges: the scanner hot
// loop on a multi-signature archive, the scan of a clean MiB (ScanCleanMB:
// MD5 plus one automaton pass; BENCH_7.json recorded these two names when
// each iteration after the first was a verdict-memo hit, which the scanner
// no longer has, so a diff against it compares different work), the
// end-to-end study engine, and the
// zero-allocation telemetry primitives every simulation tick goes
// through — including the trace encoder and tracer emit paths, which are
// pinned at zero allocs/op — plus the filter daemon's parallel lookup
// path (FilterLookup), which must hold millions of checks per second at
// zero allocs/op. These are the `// lint:hotpath` surfaces.
const defaultHeadline = "BenchmarkScanMultiSigEngine,BenchmarkScanCleanMB,BenchmarkStudyPipeline,BenchmarkCounterInc,BenchmarkHistogramObserve,BenchmarkAppendEvent,BenchmarkTracerEmit,BenchmarkFilterLookup"

// delta is one benchmark's old-to-new comparison.
type delta struct {
	name      string
	oldNs     float64
	newNs     float64
	pct       float64 // (new-old)/old * 100
	oldAllocs float64
	newAllocs float64
	headline  bool
}

// regression reports whether the delta trips the ns/op gate at the given
// threshold percentage.
func (d delta) regression(threshold float64) bool {
	return d.headline && d.pct > threshold
}

// allocRegression reports whether the delta trips the allocs/op gate. A
// benchmark previously at zero allocs/op must stay there; one that
// allocated may grow by at most the threshold percentage.
func (d delta) allocRegression(threshold float64) bool {
	if !d.headline {
		return false
	}
	if d.oldAllocs == 0 {
		return d.newAllocs > 0
	}
	return (d.newAllocs-d.oldAllocs)/d.oldAllocs*100 > threshold
}

// compare diffs the shared benchmarks of two summaries. Headline names
// absent from both maps are returned in missing.
func compare(old, new map[string]Summary, headline map[string]bool) (deltas []delta, missing []string) {
	for name := range headline {
		_, inOld := old[name]
		_, inNew := new[name]
		if !inOld || !inNew {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for name, o := range old {
		n, ok := new[name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		deltas = append(deltas, delta{
			name:      name,
			oldNs:     o.NsPerOp,
			newNs:     n.NsPerOp,
			pct:       (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100,
			oldAllocs: o.AllocsPerOp,
			newAllocs: n.AllocsPerOp,
			headline:  headline[name],
		})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].pct > deltas[j].pct })
	return deltas, missing
}

// benchFileRe matches the numbered artifacts the bench pipeline writes.
var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// errTooFewArtifacts marks the only discovery failure that is not an
// error: fewer than two summaries means there is no pair to compare, and
// the gate passes vacuously instead of breaking fresh checkouts.
var errTooFewArtifacts = errors.New("too few benchmark artifacts")

// discover returns the two highest-numbered BENCH_<n>.json paths in dir,
// previous first.
func discover(dir string) (old, new string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		found = append(found, numbered{n: n, path: filepath.Join(dir, e.Name())})
	}
	if len(found) < 2 {
		return "", "", fmt.Errorf("%w: found %d BENCH_<n>.json file(s) in %s, need two", errTooFewArtifacts, len(found), dir)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	return found[len(found)-2].path, found[len(found)-1].path, nil
}

// load reads one benchjson summary file.
func load(path string) (map[string]Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]Summary
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	threshold := flag.Float64("threshold", 15, "max allowed ns/op regression percentage for headline benchmarks")
	headlineFlag := flag.String("headline", defaultHeadline, "comma-separated headline benchmark names that gate")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		var err error
		oldPath, newPath, err = discover(".")
		if err != nil {
			// Fewer than two artifacts is the normal state of a fresh
			// checkout or the stage that introduces benchmarking — there is
			// no pair to diff, so there is nothing to gate. Say so and exit
			// clean; a malformed or unreadable directory still fails below
			// via load.
			if errors.Is(err, errTooFewArtifacts) {
				fmt.Printf("benchdiff: %v; nothing to compare, gate passes vacuously\n", err)
				return
			}
			log.Fatal(err)
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		log.Fatalf("usage: benchdiff [flags] [old.json new.json]")
	}

	oldSum, err := load(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newSum, err := load(newPath)
	if err != nil {
		log.Fatal(err)
	}

	headline := make(map[string]bool)
	for _, name := range strings.Split(*headlineFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			headline[name] = true
		}
	}

	deltas, missing := compare(oldSum, newSum, headline)
	fmt.Printf("benchdiff %s -> %s (gate: headline ns/op +%.0f%%, allocs/op +%.0f%% and zero-stays-zero)\n", oldPath, newPath, *threshold, *threshold)
	failed := 0
	for _, d := range deltas {
		mark := " "
		if d.headline {
			mark = "*"
		}
		status := ""
		if d.regression(*threshold) {
			status = "  REGRESSION"
			failed++
		}
		if d.allocRegression(*threshold) {
			status += "  ALLOC-REGRESSION"
			failed++
		}
		fmt.Printf("%s %-40s %14.1f -> %14.1f ns/op  %+7.1f%%  %10.0f -> %-10.0f allocs/op%s\n",
			mark, d.name, d.oldNs, d.newNs, d.pct, d.oldAllocs, d.newAllocs, status)
	}
	for _, name := range missing {
		fmt.Printf("! %-40s missing from old or new summary; not gated\n", name)
	}
	if failed > 0 {
		log.Fatalf("%d headline gate(s) tripped (threshold %.0f%%)", failed, *threshold)
	}
	fmt.Println("benchdiff: headline benchmarks within threshold")
}
