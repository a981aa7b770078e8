// Command p2pprof is the pipeline critical-path analyzer: it reconstructs
// per-query span trees from a span stream written by p2pstudy -spans and
// reports where each query's latency went.
//
// Per network it prints a stage-attribution table (count and p50/p95/p99
// wall time per pipeline stage), the queue-wait vs service split, a
// transfer-attempt fate/retry breakdown, and the top-N straggler queries
// with their span trees rendered as flame-style indented trees. Wall
// durations only exist when the study ran with -spans-wall-latency;
// deterministic streams still get span counts, hierarchy, fates, and
// backoffs.
//
// Usage:
//
//	p2pstudy -days 2 -spans spans.jsonl -spans-wall-latency
//	p2pprof spans.jsonl
//	p2pprof -top 10 -  # read from stdin
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"
)

// span is the JSONL form AppendSpan emits. WallUS is a pointer so the
// analyzer can tell "0µs" apart from "not recorded" (deterministic mode
// omits the field entirely).
type span struct {
	T         time.Time `json:"t"`
	Scope     string    `json:"scope"`
	Seq       int64     `json:"seq"`
	Stage     string    `json:"span"`
	ID        string    `json:"id"`
	Parent    string    `json:"parent"`
	Attempt   int32     `json:"attempt"`
	Retry     int32     `json:"retry"`
	BackoffUS int64     `json:"backoff_us"`
	Fate      string    `json:"fate"`
	Detail    string    `json:"detail"`
	WallUS    *int64    `json:"wall_us"`
}

// stageOrder is the canonical rendering order: the root, then its
// partition children as the query experiences them, with scan and
// attempts nested under fetch, then the day-boundary spans.
var stageOrder = map[string]int{
	"query":        0,
	"collect_wait": 1,
	"collect":      2,
	"fetch_wait":   3,
	"fetch":        4,
	"scan":         5,
	"attempt":      6,
	"commit_hold":  7,
	"commit":       8,
	"circuit":      9,
	"churn":        10,
}

// queueStages are the stages that measure waiting for a pipeline resource
// rather than doing work; the rest of the partition is service time.
var queueStages = map[string]bool{"collect_wait": true, "fetch_wait": true, "commit_hold": true}

// partitionStages tile the root query span exactly.
var partitionStages = []string{"collect_wait", "collect", "fetch_wait", "fetch", "commit_hold", "commit"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2pprof: ")
	top := flag.Int("top", 5, "straggler queries to render as span trees")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: p2pprof [-top N] <spans.jsonl | ->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	spans, err := readSpans(r)
	if err != nil {
		log.Fatal(err)
	}
	if len(spans) == 0 {
		log.Fatal("no spans in input")
	}
	report(os.Stdout, spans, *top)
}

func readSpans(r io.Reader) ([]span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s span
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading spans: %w", err)
	}
	return out, nil
}

// scopeProf accumulates one network's span statistics.
type scopeProf struct {
	stages   map[string][]int64 // stage -> wall samples (µs)
	counts   map[string]int64   // stage -> span count (wall or not)
	fates    map[string]int64   // attempt fate -> count
	retries  []int64            // attempts per query (from max Attempt)
	backoff  int64              // total deterministic backoff slept (µs)
	roots    []span             // query root spans
	rootSum  int64              // Σ root wall (µs)
	stageSum int64              // Σ partition-stage wall (µs)
	hasWall  bool
}

func report(w io.Writer, spans []span, top int) {
	scopes := make(map[string]*scopeProf)
	// children indexes the tree per scope: parent ID -> child spans.
	children := make(map[string]map[string][]span)
	attemptsPerQuery := make(map[string]map[int64]int64)
	for _, s := range spans {
		sp := scopes[s.Scope]
		if sp == nil {
			sp = &scopeProf{stages: make(map[string][]int64), counts: make(map[string]int64), fates: make(map[string]int64)}
			scopes[s.Scope] = sp
			children[s.Scope] = make(map[string][]span)
			attemptsPerQuery[s.Scope] = make(map[int64]int64)
		}
		sp.counts[s.Stage]++
		if s.WallUS != nil {
			sp.hasWall = true
			sp.stages[s.Stage] = append(sp.stages[s.Stage], *s.WallUS)
		}
		if s.Parent != "" {
			children[s.Scope][s.Parent] = append(children[s.Scope][s.Parent], s)
		}
		switch s.Stage {
		case "query":
			sp.roots = append(sp.roots, s)
			if s.WallUS != nil {
				sp.rootSum += *s.WallUS
			}
		case "attempt":
			sp.fates[s.Fate]++
			sp.backoff += s.BackoffUS
			if int64(s.Attempt) > attemptsPerQuery[s.Scope][s.Seq] {
				attemptsPerQuery[s.Scope][s.Seq] = int64(s.Attempt)
			}
		}
		if s.WallUS != nil {
			for _, ps := range partitionStages {
				if s.Stage == ps {
					sp.stageSum += *s.WallUS
					break
				}
			}
		}
	}
	for scope, m := range attemptsPerQuery {
		for _, n := range m {
			scopes[scope].retries = append(scopes[scope].retries, n)
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
		fmt.Fprintf(w, "%d queries, %d spans\n", len(sp.roots), totalCount(sp.counts))
		if !sp.hasWall {
			fmt.Fprintln(w, "(no wall_us data: run p2pstudy with -spans-wall-latency for stage attribution)")
		}
		reportStages(w, sp)
		reportAttempts(w, sp)
		reportStragglers(w, sp, children[name], top)
	}
}

func totalCount(counts map[string]int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
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
	var queueUS, serviceUS int64
	for _, st := range stages {
		samples := sp.stages[st]
		if len(samples) == 0 {
			fmt.Fprintf(w, "%-14s %8d %10s %10s %10s %12s\n", st, sp.counts[st], "-", "-", "-", "-")
			continue
		}
		p50, p95, p99, total := quantiles(samples)
		fmt.Fprintf(w, "%-14s %8d %10s %10s %10s %12s\n", st, sp.counts[st], us(p50), us(p95), us(p99), us(total))
		if queueStages[st] {
			queueUS += total
		} else if st == "collect" || st == "fetch" || st == "commit" {
			serviceUS += total
		}
	}
	if queueUS+serviceUS > 0 {
		fmt.Fprintf(w, "queue wait vs service: %s (%.1f%%) vs %s (%.1f%%)\n",
			us(queueUS), 100*float64(queueUS)/float64(queueUS+serviceUS),
			us(serviceUS), 100*float64(serviceUS)/float64(queueUS+serviceUS))
	}
	if sp.rootSum > 0 {
		cov := 100 * float64(sp.stageSum) / float64(sp.rootSum)
		fmt.Fprintf(w, "stage coverage: Σstages/Σquery = %s/%s (%.2f%%)\n", us(sp.stageSum), us(sp.rootSum), cov)
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
	if len(sp.retries) > 0 {
		p50, p95, p99, _ := quantiles(sp.retries)
		fmt.Fprintf(w, "attempts per fetching query: p50=%d p95=%d p99=%d; total backoff slept %s\n", p50, p95, p99, us(sp.backoff))
	}
}

// reportStragglers renders the top-N slowest queries as indented span
// trees (children in canonical stage order, attempts under fetch).
func reportStragglers(w io.Writer, sp *scopeProf, kids map[string][]span, top int) {
	if !sp.hasWall || top <= 0 {
		return
	}
	roots := append([]span(nil), sp.roots...)
	sort.Slice(roots, func(i, j int) bool { return wall(roots[i]) > wall(roots[j]) })
	if len(roots) > top {
		roots = roots[:top]
	}
	fmt.Fprintf(w, "straggler top %d:\n", len(roots))
	for i, r := range roots {
		fmt.Fprintf(w, "#%d seq=%d t=%s wall=%s\n", i+1, r.Seq, r.T.Format(time.RFC3339), us(wall(r)))
		renderTree(w, r, kids, 1)
	}
}

func renderTree(w io.Writer, parent span, kids map[string][]span, depth int) {
	cs := append([]span(nil), kids[parent.ID]...)
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
		fmt.Fprintf(w, "%-14s %10s", c.Stage, us(wall(c)))
		if c.Stage == "attempt" {
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

func wall(s span) int64 {
	if s.WallUS == nil {
		return -1
	}
	return *s.WallUS
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
