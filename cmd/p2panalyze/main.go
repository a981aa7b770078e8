// Command p2panalyze reads what p2pstudy writes. Its subcommands:
//
//   - report prints every table and figure of the evaluation except the
//     filtering results: data summary (T1), prevalence (T2), top malware
//     (T3), concentration curve (F1), sources (T4), host concentration
//     (F2), temporal series (F3), size distributions (F4), query-category
//     rates (T6) and vendor breakdown (T7).
//   - filter trains and evaluates the paper's response filters on a
//     trace: the size-based filter versus LimeWire's built-in mechanisms
//     and a content-hash baseline (T5), a deployment what-if, and the
//     detection / false-positive sweep over block-list length (F5).
//   - records selects trace records by network, query, malware family,
//     source class or downloadability, and prints or counts them.
//   - spans is the pipeline critical-path analyzer over a span stream. Per
//     network it prints a stage-attribution table (count and p50/p95/p99
//     wall time per stage), the queue-wait vs service split, a
//     transfer-attempt fate/retry breakdown, and the top-N straggler
//     queries as indented span trees. Wall durations exist only when the
//     study ran with -spans-wall-latency; deterministic streams still get
//     span counts, hierarchy, fates and backoffs.
//
// Usage:
//
//	p2panalyze report -trace trace.jsonl [-network limewire]
//	p2panalyze filter -trace trace.jsonl -train-frac 0.25 -k 10
//	p2panalyze filter -trace trace.jsonl -sweep 1,2,3,5,10,20,50
//	p2panalyze records -trace trace.jsonl -malware W32.Sivex.A -limit 10
//	p2panalyze records -trace trace.jsonl -source-class private -count
//	p2panalyze records -trace trace.jsonl -query "photoshop" -downloadable
//	p2panalyze spans spans.jsonl
//	p2panalyze spans -top 10 -  # read from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/dataset"
)

// subcommands lists the subcommands in the order usage prints them.
var subcommands = []struct {
	name, about string
	run         func(args []string) error
}{
	{"report", "every table and figure except T5 and F5, from a trace", traceReader(parseReport)},
	{"filter", "filter comparison (T5), deployment what-if and k-sweep (F5)", traceReader(parseFilter)},
	{"records", "select trace records and print or count them", traceReader(parseRecords)},
	{"spans", "where each query's latency went, from a span stream", runSpans},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2panalyze: ")
	if len(os.Args) > 1 {
		for _, c := range subcommands {
			if c.name == os.Args[1] {
				log.SetPrefix("p2panalyze " + c.name + ": ")
				if err := c.run(os.Args[2:]); err != nil {
					log.Fatal(err)
				}
				return
			}
		}
	}
	fmt.Fprintln(os.Stderr, "usage: p2panalyze <subcommand> [flags]\n\nsubcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.name, c.about)
	}
	os.Exit(2)
}

// A traceWriter prints one record reader's output for a trace.
type traceWriter func(w io.Writer, tr *dataset.Trace) error

// traceReader runs a record reader: parse checks its flags before the trace
// is read, then the writer prints to stdout.
func traceReader(parse func(args []string) (tracePath string, write traceWriter, err error)) func([]string) error {
	return func(args []string) error {
		tracePath, write, err := parse(args)
		if err != nil {
			return err
		}
		tr, err := readTrace(tracePath)
		if err != nil {
			return err
		}
		return write(os.Stdout, tr)
	}
}

// readTrace decodes the trace file p2pstudy wrote at path.
func readTrace(path string) (*dataset.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadJSONL(f)
}

// parseReport reads the report subcommand's flags.
func parseReport(args []string) (string, traceWriter, error) {
	fs := flag.NewFlagSet("p2panalyze report", flag.ExitOnError)
	tracePath := fs.String("trace", "trace.jsonl", "trace file written by p2pstudy")
	var opts analysis.ReportOptions
	network := fs.String("network", "", "restrict to one network (limewire or openft)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse

	switch nw := dataset.Network(*network); nw {
	case "":
	case dataset.LimeWire, dataset.OpenFT:
		opts.Networks = []dataset.Network{nw}
	default:
		return "", nil, fmt.Errorf("unknown -network %q", *network)
	}
	return *tracePath, func(w io.Writer, tr *dataset.Trace) error {
		return analysis.WriteReport(w, tr, opts)
	}, nil
}
