package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/deploy"
	"p2pmalware/internal/filter"
)

// parseFilter reads the filter subcommand's flags and rejects values the
// evaluation cannot use.
func parseFilter(args []string) (string, traceWriter, error) {
	fs := flag.NewFlagSet("p2panalyze filter", flag.ExitOnError)
	tracePath := fs.String("trace", "trace.jsonl", "trace file written by p2pstudy")
	trainFrac := fs.Float64("train-frac", 0.25, "leading fraction of the trace used for training")
	k := fs.Int("k", 10, "size-filter block-list length (0 = all malicious sizes)")
	sweep := fs.String("sweep", "1,2,3,5,10,20,50", "comma-separated ks for the F5 sweep")
	network := fs.String("network", "limewire", "network to evaluate: limewire or openft")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse

	nw := dataset.Network(*network)
	switch {
	case nw != dataset.LimeWire && nw != dataset.OpenFT:
		return "", nil, fmt.Errorf("unknown -network %q", *network)
	case !(*trainFrac > 0 && *trainFrac < 1):
		// An empty training or evaluation half leaves nothing to measure.
		return "", nil, fmt.Errorf("-train-frac %v is outside (0, 1)", *trainFrac)
	case *k < 0:
		return "", nil, fmt.Errorf("-k %d is negative (0 = all malicious sizes)", *k)
	}
	ks, err := parseKs(*sweep)
	if err != nil {
		return "", nil, err
	}
	return *tracePath, func(w io.Writer, tr *dataset.Trace) error {
		return writeFilter(w, tr, nw, *trainFrac, *k, ks)
	}, nil
}

// writeFilter trains the filters on the leading fraction of tr and prints
// their evaluation on the rest: T5, the per-family breakdown, the
// deployment what-if and F5.
func writeFilter(w io.Writer, tr *dataset.Trace, nw dataset.Network, trainFrac float64, k int, sweep []int) error {
	train, eval := filter.SplitTrace(tr, trainFrac)
	fmt.Fprintf(w, "train: %d records, eval: %d records (split at %.0f%% of trace duration)\n",
		len(train.Records), len(eval.Records), 100*trainFrac)

	fmt.Fprintln(w, "\n== T5: Filter comparison ==")
	size := filter.TrainSizeFilter(train, nw, k)
	fmt.Fprintf(w, "size filter block list (%d sizes): %v\n", size.NumSizes(), size.Sizes())
	builtin := filter.NewBuiltinFilter()
	fmt.Fprintf(w, "%-36s %10s %8s %10s %8s\n", "filter", "detected", "rate", "false-pos", "fp-rate")
	for _, f := range []filter.Filter{
		size, builtin, filter.TrainHashFilter(train, nw), &filter.Union{Filters: []filter.Filter{size, builtin}},
	} {
		r := filter.Evaluate(f, eval, nw)
		fmt.Fprintf(w, "%-36s %10d %7.2f%% %10d %7.3f%%\n",
			r.Filter, r.Detected, 100*r.DetectionRate, r.FalsePositives, 100*r.FalsePositiveRate)
	}

	fmt.Fprintln(w, "\nper-family detection under the size filter:")
	for _, fd := range filter.PerFamilyDetection(size, eval, nw) {
		fmt.Fprintf(w, "  %-20s %6d/%6d %7.2f%%\n", fd.Family, fd.Detected, fd.Total, 100*fd.Rate)
	}

	fmt.Fprintln(w, "\ndeployment what-if: infection rate of a simulated user population")
	outs, err := deploy.Compare(eval, nw, []filter.Filter{nil, filter.NewBuiltinFilter(), size},
		deploy.Config{Seed: 2006})
	if err != nil {
		return err
	}
	for _, out := range outs {
		fmt.Fprintf(w, "  %-36s downloads=%-6d infections=%-6d rate=%.2f%% clean-blocked=%d\n",
			out.Filter, out.Downloads, out.Infections, 100*out.InfectionRate, out.BlockedClean)
	}

	fmt.Fprintln(w, "\n== F5: Size-filter sweep over block-list length ==")
	fmt.Fprintf(w, "%-6s %10s %10s\n", "k", "detection", "fp-rate")
	for _, pt := range filter.SweepSizeFilter(train, eval, nw, sweep) {
		fmt.Fprintf(w, "%-6d %9.2f%% %9.3f%%\n", pt.K, 100*pt.DetectionRate, 100*pt.FalsePositiveRate)
	}
	return nil
}

// parseKs parses the -sweep list; 0 keeps its meaning, all sizes.
func parseKs(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("sweep value %q is not a k >= 0 (0 = all malicious sizes)", part)
		}
		ks = append(ks, v)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("empty sweep list")
	}
	return ks, nil
}
