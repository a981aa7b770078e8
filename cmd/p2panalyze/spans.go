package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"p2pmalware/internal/obs"
)

// stageOrder is the canonical rendering order: the root, then its
// partition children as the query experiences them, with scan and
// attempts nested under fetch, then the day-boundary spans.
var stageOrder = map[string]int{
	obs.StageQuery:       0,
	obs.StageCollectWait: 1,
	obs.StageCollect:     2,
	obs.StageFetchWait:   3,
	obs.StageFetch:       4,
	obs.StageScan:        5,
	obs.StageAttempt:     6,
	obs.StageCommitHold:  7,
	obs.StageCommit:      8,
	obs.StageCircuit:     9,
	obs.StageChurn:       10,
}

// queueStages measure waiting for a pipeline resource and serviceStages
// doing work (fetch includes its waits for a free transfer); together they
// tile the root query span exactly.
var (
	queueStages   = map[string]bool{obs.StageCollectWait: true, obs.StageFetchWait: true, obs.StageCommitHold: true}
	serviceStages = map[string]bool{obs.StageCollect: true, obs.StageFetch: true, obs.StageCommit: true}
)

func runSpans(args []string) error {
	fs := flag.NewFlagSet("p2panalyze spans", flag.ExitOnError)
	top := fs.Int("top", 5, "straggler queries to render as span trees")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: p2panalyze spans [-top N] <spans.jsonl | ->\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spans, err := obs.ReadSpansJSONL(r)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return errors.New("no spans in input")
	}
	printSpans(os.Stdout, spans, *top)
	return nil
}

// scopeProf accumulates one network's span statistics.
type scopeProf struct {
	spans    int64                     // spans in this scope
	stages   map[string][]int64        // stage -> wall samples (µs)
	counts   map[string]int64          // stage -> span count (wall or not)
	fates    map[string]int64          // attempt fate -> count
	attempts map[int64]int64           // query seq -> highest attempt number
	kids     map[obs.SpanID][]obs.Span // parent ID -> child spans
	backoff  int64                     // total deterministic backoff slept (µs)
	roots    []obs.Span                // query root spans
	hasWall  bool
}

func printSpans(w io.Writer, spans []obs.Span, top int) {
	scopes := make(map[string]*scopeProf)
	for _, s := range spans {
		sp := scopes[s.Scope]
		if sp == nil {
			sp = &scopeProf{stages: make(map[string][]int64), counts: make(map[string]int64), fates: make(map[string]int64),
				attempts: make(map[int64]int64), kids: make(map[obs.SpanID][]obs.Span)}
			scopes[s.Scope] = sp
		}
		sp.spans++
		sp.counts[s.Stage]++
		if s.WallUS >= 0 {
			sp.hasWall = true
			sp.stages[s.Stage] = append(sp.stages[s.Stage], s.WallUS)
		}
		if s.Parent != 0 {
			sp.kids[s.Parent] = append(sp.kids[s.Parent], s)
		}
		switch s.Stage {
		case obs.StageQuery:
			sp.roots = append(sp.roots, s)
		case obs.StageAttempt:
			sp.fates[s.Fate]++
			sp.backoff += s.BackoffUS
			if int64(s.Attempt) > sp.attempts[s.Seq] {
				sp.attempts[s.Seq] = int64(s.Attempt)
			}
		}
	}

	names := make([]string, 0, len(scopes))
	for name := range scopes {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%d spans\n", len(spans))
	for _, name := range names {
		sp := scopes[name]
		fmt.Fprintf(w, "\n== %s ==\n", name)
		fmt.Fprintf(w, "%d queries, %d spans\n", len(sp.roots), sp.spans)
		if !sp.hasWall {
			fmt.Fprintln(w, "(no wall_us data: run p2pstudy with -spans-wall-latency for stage attribution)")
		}
		reportStages(w, sp)
		reportAttempts(w, sp)
		reportStragglers(w, sp, top)
	}
}

// reportStages prints the stage-attribution table and the queue-wait vs
// service split.
func reportStages(w io.Writer, sp *scopeProf) {
	stages := make([]string, 0, len(sp.counts))
	for s := range sp.counts {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool {
		oi, oki := stageOrder[stages[i]]
		oj, okj := stageOrder[stages[j]]
		if oki && okj && oi != oj {
			return oi < oj
		}
		if oki != okj {
			return oki
		}
		return stages[i] < stages[j]
	})
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %12s\n", "stage", "count", "p50", "p95", "p99", "total")
	var queueUS, serviceUS, rootUS int64
	for _, st := range stages {
		samples := sp.stages[st]
		if len(samples) == 0 {
			fmt.Fprintf(w, "%-14s %8d %10s %10s %10s %12s\n", st, sp.counts[st], "-", "-", "-", "-")
			continue
		}
		p50, p95, p99, total := quantiles(samples)
		fmt.Fprintf(w, "%-14s %8d %10s %10s %10s %12s\n", st, sp.counts[st], us(p50), us(p95), us(p99), us(total))
		switch {
		case st == obs.StageQuery:
			rootUS = total
		case queueStages[st]:
			queueUS += total
		case serviceStages[st]:
			serviceUS += total
		}
	}
	if queueUS+serviceUS > 0 {
		fmt.Fprintf(w, "queue wait vs service: %s (%.1f%%) vs %s (%.1f%%)\n",
			us(queueUS), 100*float64(queueUS)/float64(queueUS+serviceUS),
			us(serviceUS), 100*float64(serviceUS)/float64(queueUS+serviceUS))
	}
	if rootUS > 0 {
		stageUS := queueUS + serviceUS
		fmt.Fprintf(w, "stage coverage: Σstages/Σquery = %s/%s (%.2f%%)\n",
			us(stageUS), us(rootUS), 100*float64(stageUS)/float64(rootUS))
	}
}

// reportAttempts prints the transfer-attempt fate and retry breakdown.
func reportAttempts(w io.Writer, sp *scopeProf) {
	if len(sp.fates) == 0 {
		return
	}
	fates := make([]string, 0, len(sp.fates))
	for f := range sp.fates {
		fates = append(fates, f)
	}
	sort.Strings(fates)
	fmt.Fprintf(w, "attempt fates:")
	for _, f := range fates {
		fmt.Fprintf(w, " %s=%d", f, sp.fates[f])
	}
	fmt.Fprintln(w)
	if len(sp.attempts) > 0 {
		perQuery := make([]int64, 0, len(sp.attempts))
		for _, n := range sp.attempts {
			perQuery = append(perQuery, n)
		}
		p50, p95, p99, _ := quantiles(perQuery)
		fmt.Fprintf(w, "attempts per fetching query: p50=%d p95=%d p99=%d; total backoff slept %s\n", p50, p95, p99, us(sp.backoff))
	}
}

// reportStragglers renders the top-N slowest queries as indented span
// trees (children in canonical stage order, attempts under fetch).
func reportStragglers(w io.Writer, sp *scopeProf, top int) {
	if !sp.hasWall || top <= 0 {
		return
	}
	roots := append([]obs.Span(nil), sp.roots...)
	sort.Slice(roots, func(i, j int) bool { return roots[i].WallUS > roots[j].WallUS })
	if len(roots) > top {
		roots = roots[:top]
	}
	fmt.Fprintf(w, "straggler top %d:\n", len(roots))
	for i, r := range roots {
		fmt.Fprintf(w, "#%d seq=%d t=%s wall=%s\n", i+1, r.Seq, r.Time.Format(time.RFC3339), us(r.WallUS))
		renderTree(w, r, sp.kids, 1)
	}
}

func renderTree(w io.Writer, parent obs.Span, kids map[obs.SpanID][]obs.Span, depth int) {
	cs := append([]obs.Span(nil), kids[parent.ID]...)
	sort.Slice(cs, func(i, j int) bool {
		oi, oj := stageOrder[cs[i].Stage], stageOrder[cs[j].Stage]
		if oi != oj {
			return oi < oj
		}
		return cs[i].Attempt < cs[j].Attempt
	})
	for _, c := range cs {
		for i := 0; i < depth; i++ {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%-14s %10s", c.Stage, us(c.WallUS))
		if c.Stage == obs.StageAttempt {
			fmt.Fprintf(w, "  #%d retry=%d fate=%s", c.Attempt, c.Retry, c.Fate)
			if c.BackoffUS > 0 {
				fmt.Fprintf(w, " backoff=%s", us(c.BackoffUS))
			}
			if c.Detail != "" {
				fmt.Fprintf(w, " src=%s", c.Detail)
			}
		}
		fmt.Fprintln(w)
		renderTree(w, c, kids, depth+1)
	}
}

// us renders a microsecond quantity as a duration, with -1 (unrecorded)
// as "-".
func us(v int64) string {
	if v < 0 {
		return "-"
	}
	return (time.Duration(v) * time.Microsecond).String()
}

// quantiles returns nearest-rank p50/p95/p99 and the sum (vs sorted in
// place).
func quantiles(vs []int64) (p50, p95, p99, total int64) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		total += v
	}
	rank := func(q float64) int64 {
		i := int(q*float64(len(vs))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(vs) {
			i = len(vs) - 1
		}
		return vs[i]
	}
	return rank(0.50), rank(0.95), rank(0.99), total
}
