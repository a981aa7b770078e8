package main

import (
	"bufio"
	"crypto/md5"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/openft"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/scanner"
	"p2pmalware/internal/simclock"
)

// spanLine is one line of p2pstudy's -spans output.
type spanLine struct {
	Scope     string `json:"scope"`
	Seq       int64  `json:"seq"`
	Span      string `json:"span"`
	ID        string `json:"id"`
	Parent    string `json:"parent"`
	Retry     int32  `json:"retry"`
	BackoffUS int64  `json:"backoff_us"`
	Fate      string `json:"fate"`
	WallUS    int64  `json:"wall_us"`
}

// partition are the stage spans that tile a query's root span.
var partition = []string{"collect_wait", "collect", "fetch_wait", "fetch", "commit_hold", "commit"}

var queueStages = map[string]bool{"collect_wait": true, "fetch_wait": true, "commit_hold": true}

var scopeShort = map[string]string{"limewire": "lw", "openft": "ft"}

func readSpans(path string) ([]spanLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []spanLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// runStudyTraced is the traced run of a study workload: (a) the same
// p2pstudy run untraced and with its span output, for the core metrics
// and the tracing overhead; (b) the benchmark's replay of the same
// universe seed, for every other study layer.
func runStudyTraced(o *options, r *report, faulted bool) error {
	seed := subSeed(o.seed, 0)
	plain, err := runStudy(o, seed, faulted, "")
	r.op(err)
	if err != nil {
		return err
	}
	checkTrace(r, o.exp, seed, plain.trace)
	spansPath := filepath.Join(o.work, "spans.jsonl")
	traced, err := runStudy(o, seed, faulted, spansPath)
	r.op(err)
	if err != nil {
		return err
	}
	checkTrace(r, o.exp, seed, traced.trace)
	spans, err := readSpans(spansPath)
	if err != nil {
		return err
	}
	r.add("obs.tracing_overhead_s", "s", traced.wall-plain.wall)
	r.add("ops_failed_pct", "%", opsFailedPct([]*dataset.Trace{plain.trace}))

	rp, err := runReplay(seed, studyUnit.days*studyUnit.perDay)
	r.op(err)
	if err != nil {
		return err
	}
	coreMetrics(o, r, spans, plain, traced.trace, rp)
	layerMetrics(r, rp)
	replayCPU := accountedCPU(rp)
	explained := replayCPU.Seconds() / plain.cpu
	r.add("accounting.explained_share", "ratio", explained)
	r.check(explained >= o.exp.ExplainedShare[0] && explained <= o.exp.ExplainedShare[1],
		"replay layers account for %.3fs of the study's %.3fs CPU (share %.3f, allowed [%.2f, %.2f])",
		replayCPU.Seconds(), plain.cpu, explained, o.exp.ExplainedShare[0], o.exp.ExplainedShare[1])
	// The study-trained size filter served in process: the deployment
	// step of the paper's pipeline, measured here so the filtersvc layer
	// has figures on a study workload too.
	in, err := newFilterdInputs(o, plain.trace)
	if err != nil {
		return err
	}
	_, err = filtersvcLayer(r, in)
	return err
}

// coreMetrics derives the core.* metrics from the traced run's spans and
// checks that each query's stage spans tile its root span.
func coreMetrics(o *options, r *report, spans []spanLine, plain *studyRun, tr *dataset.Trace, rp *replayOut) {
	stage := map[string]float64{} // "lw.collect" -> seconds
	roots := map[string][]float64{}
	cover := map[string]int64{} // root id -> summed partition wall
	rootWall := map[string]int64{}
	var queue, service int64
	var attempts, retries, timeouts, transfers float64
	var backoff int64
	collect := map[string][]float64{}
	for _, s := range spans {
		sc := scopeShort[s.Scope]
		switch {
		case s.Span == "query":
			roots[sc] = append(roots[sc], float64(s.WallUS)/1000)
			rootWall[s.ID] = s.WallUS
		case s.Span == "attempt":
			attempts++
			if s.Retry > 1 {
				retries++
			} else {
				transfers++
			}
			if s.Fate == p2p.FateTimeout {
				timeouts++
			}
			backoff += s.BackoffUS
		}
		for _, p := range partition {
			if s.Span == p {
				cover[s.Parent] += s.WallUS
				if queueStages[p] {
					queue += s.WallUS
				} else {
					service += s.WallUS
				}
			}
		}
		if s.Span != "query" && s.Span != "attempt" && s.Span != "circuit" {
			stage[sc+"."+s.Span] += float64(s.WallUS) / 1e6
		}
		if s.Span == "collect" {
			collect[sc] = append(collect[sc], float64(s.WallUS)/1000)
		}
	}
	for _, sc := range []string{"lw", "ft"} {
		for _, st := range append(append([]string(nil), partition...), "scan") {
			r.add(fmt.Sprintf("core.%s.%s_s", sc, st), "s", stage[sc+"."+st])
		}
		r.add(fmt.Sprintf("core.%s.query_p50_ms", sc), "ms", roots[sc]...)
		r.put(fmt.Sprintf("core.%s.query_p99_ms", sc), "ms", tail(roots[sc], 99))
		r.add(fmt.Sprintf("core.%s.collect_excess_ms", sc), "ms", summarize(collect[sc]).Median-summarize(rp.lastMS[sc]).Median)
	}
	if queue+service > 0 {
		r.add("core.queue_wait_share", "ratio", float64(queue)/float64(queue+service))
	}
	r.add("core.cpu_util", "ratio", plain.cpu/(plain.wall*float64(runtime.GOMAXPROCS(0))))

	var worst float64
	for id, root := range rootWall {
		gap := float64(cover[id] - root)
		if gap < 0 {
			gap = -gap
		}
		// Each stage is rounded to a microsecond on its own.
		if rel := (gap - float64(len(partition))) / float64(root); rel > worst {
			worst = rel
		}
	}
	r.add("accounting.span_cover_gap", "ratio", worst)
	r.check(len(rootWall) > 0, "the traced run wrote no query spans")
	r.check(worst <= o.exp.SpanCover, "stage spans miss a query's root span by %.4f of it (allowed %.2f)", worst, o.exp.SpanCover)

	var downloadable, failed, alt float64
	for i := range tr.Records {
		rec := &tr.Records[i]
		if !rec.Downloadable {
			continue
		}
		downloadable++
		if rec.DownloadError != "" {
			failed++
		}
		if rec.AltSource != "" && rec.DownloadError == "" {
			alt++
		}
	}
	r.add("core.attempts", "count", attempts)
	r.add("core.retries", "count", retries)
	r.add("core.timeouts", "count", timeouts)
	r.add("core.alt_source_ok", "count", alt)
	r.add("core.fetch_failed", "count", failed)
	r.add("core.backoff_s", "s", float64(backoff)/1e6)
	if downloadable > 0 {
		r.add("core.dedup_ratio", "ratio", transfers/downloadable)
	}
}

// accountedCPU sums the CPU of the replayed layer calls that the study
// itself makes: building, flooding, fetching, scanning and recording.
func accountedCPU(rp *replayOut) time.Duration {
	var t time.Duration
	for _, name := range []string{"netsim.build_lw", "netsim.build_ft", "gnutella.flood", "openft.search",
		"gnutella.download", "openft.download", "scanner.scan", "dataset.add", "dataset.write_jsonl"} {
		_, cpu, _ := rp.rec.total(name)
		t += cpu
	}
	return t
}

// layerMetrics reports the replayed layers.
func layerMetrics(r *report, rp *replayOut) {
	rec := &rp.rec
	lwBuild, lwCPU, _ := rec.total("netsim.build_lw")
	ftBuild, ftCPU, _ := rec.total("netsim.build_ft")
	r.add("netsim.build_lw_ms", "ms", ms(lwBuild))
	r.add("netsim.build_ft_ms", "ms", ms(ftBuild))
	r.add("netsim.build_cpu_ms", "ms", ms(lwCPU+ftCPU))
	r.add("p2p.mem_roundtrip_us", "us", memRoundTrips(2000)...)

	r.add("gnutella.flood_first_hit_ms.p50", "ms", rp.firstMS["lw"]...)
	r.put("gnutella.flood_first_hit_ms.p99", "ms", tail(rp.firstMS["lw"], 99))
	r.add("gnutella.flood_last_hit_ms.p50", "ms", rp.lastMS["lw"]...)
	r.put("gnutella.flood_last_hit_ms.p99", "ms", tail(rp.lastMS["lw"], 99))
	r.add("gnutella.hits_per_query", "count", mean(rp.results["lw"]))
	_, floodCPU, floods := rec.total("gnutella.flood")
	r.add("gnutella.flood_cpu_ms", "ms", ms(floodCPU)/float64(max(floods, 1)))
	lwDL := rec.durations("gnutella.download")
	lwDLTotal, _, _ := rec.total("gnutella.download")
	r.add("gnutella.download_ms.p50", "ms", lwDL...)
	r.put("gnutella.download_ms.p99", "ms", tail(lwDL, 99))
	r.add("gnutella.download_mb_per_s", "MB/s", rp.downloadMB["gnutella"]/lwDLTotal.Seconds())
	r.add("gnutella.parse_queryhit_ns", "ns", nsPerOp(len(rp.qhPayloads), func(i int) { gnutella.ParseQueryHit(rp.qhPayloads[i]) }))

	r.add("openft.search_first_result_ms", "ms", rp.firstMS["ft"]...)
	r.add("openft.search_last_result_ms.p50", "ms", rp.lastMS["ft"]...)
	r.put("openft.search_last_result_ms.p99", "ms", tail(rp.lastMS["ft"], 99))
	r.add("openft.results_per_search", "count", mean(rp.results["ft"]))
	ftDL := rec.durations("openft.download")
	r.add("openft.download_ms.p50", "ms", ftDL...)
	r.put("openft.download_ms.p99", "ms", tail(ftDL, 99))
	r.add("openft.parse_searchresp_ns", "ns", nsPerOp(len(rp.srPayloads), func(i int) { openft.ParseSearchResp(rp.srPayloads[i]) }))

	scanMBps, md5MBps := scanRates(rp.bodies)
	r.add("scanner.scan_mb_per_s", "MB/s", scanMBps)
	r.add("scanner.md5_mb_per_s", "MB/s", md5MBps)
	r.add("scanner.ac_share", "ratio", 1-scanMBps/md5MBps)
	if rp.scans > 0 {
		r.add("scanner.memo_hit_ratio", "ratio", float64(rp.memoHits)/float64(rp.scans))
	}

	recs := rp.trace.Records
	r.add("dataset.add_ns_per_record", "ns", nsPerOp(len(recs), func() func(int) {
		tr := dataset.NewTrace()
		return func(i int) {
			if i == 0 {
				tr = dataset.NewTrace()
			}
			tr.Add(recs[i])
		}
	}()))
	r.add("dataset.jsonl_mb_per_s", "MB/s", mbPerSecond(rp.trace.WriteJSONL))
	r.add("obs.events_encode_mb_per_s", "MB/s", mbPerSecond(func(w io.Writer) error { return obs.WriteEventsJSONL(w, rp.events) }))
	spans := replaySpans(rec)
	r.add("obs.spans_encode_mb_per_s", "MB/s", mbPerSecond(func(w io.Writer) error { return obs.WriteSpansJSONL(w, spans) }))

	for name, d := range rec.selfTime() {
		r.add("self_ms:"+name, "ms", ms(d))
	}
}

// replaySpans turns the replay's own spans into obs spans, the input of
// the span-encoding measurement.
func replaySpans(rec *recorder) []obs.Span {
	sr := obs.NewSpanRecorder("replay", nil, true)
	for i, s := range rec.spans {
		sr.AddWallUS(obs.Span{Time: simclock.DefaultEpoch, Seq: int64(s.query), Stage: s.name, Attempt: int32(i)}, s.dur().Microseconds())
	}
	return sr.Spans()
}

// minMeasure is how long each in-process rate measurement runs.
const minMeasure = 200 * time.Millisecond

// nsPerOp calls fn(0..n-1) in passes until minMeasure has passed and
// returns the mean time per call.
func nsPerOp(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	calls := 0
	for time.Since(start) < minMeasure {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// mbPerSecond repeats an encoder into a counting writer for minMeasure.
func mbPerSecond(encode func(io.Writer) error) float64 {
	var w countingWriter
	start := time.Now()
	for time.Since(start) < minMeasure {
		if err := encode(&w); err != nil {
			return 0
		}
	}
	return float64(w.n) / (1 << 20) / time.Since(start).Seconds()
}

// scanRates scans the distinct bodies with a cold engine (no memo hits)
// and hashes them with md5 alone, in passes of minMeasure.
func scanRates(bodies [][]byte) (scan, md5Only float64) {
	var total float64
	for _, b := range bodies {
		total += float64(len(b))
	}
	if total == 0 {
		return 0, 0
	}
	var scanTime time.Duration
	passes := 0
	for scanTime < minMeasure {
		e, err := scanner.FromCatalogs(malware.LimeWireCatalog(), malware.OpenFTCatalog())
		if err != nil {
			return 0, 0
		}
		start := time.Now()
		for _, b := range bodies {
			e.ScanSum(b)
		}
		scanTime += time.Since(start)
		passes++
	}
	start := time.Now()
	hashPasses := 0
	for time.Since(start) < minMeasure {
		for _, b := range bodies {
			md5.Sum(b)
		}
		hashPasses++
	}
	mb := total / (1 << 20)
	return mb * float64(passes) / scanTime.Seconds(), mb * float64(hashPasses) / time.Since(start).Seconds()
}

// memRoundTrips times n Dial + 64-byte echo + Close round trips on the
// in-memory transport, in microseconds.
func memRoundTrips(n int) []float64 {
	m := p2p.NewMem()
	ln, err := m.Listen("10.0.0.1:1")
	if err != nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			if _, err := io.ReadFull(c, buf); err == nil {
				c.Write(buf)
			}
			c.Close()
		}
	}()
	msg := make([]byte, 64)
	var out []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		c, err := m.Dial("10.0.0.1:1")
		if err != nil {
			break
		}
		c.Write(msg)
		io.ReadFull(c, msg)
		c.Close()
		out = append(out, us(time.Since(start)))
	}
	ln.Close()
	<-done
	return out
}

// idleLayers marks every declared metric under the given prefixes that
// this workload did not produce as idle by design.
func idleLayers(o *options, r *report, prefixes ...string) {
	for _, d := range o.declared {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				r.idle(d.Name, d.Unit)
			}
		}
	}
}
