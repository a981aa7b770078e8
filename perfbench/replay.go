package main

import (
	"crypto/md5"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/guid"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/openft"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/scanner"
	"p2pmalware/internal/simclock"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

// The replay driver rebuilds one study's universes and calls each
// layer's public functions itself, one call at a time, recording a span
// and the process CPU delta around every call. Spans stay in memory.

// span is one timed call into a layer.
type span struct {
	name       string
	parent     int // index of the parent span, -1 for a root
	query      int // query number, -1 outside a query
	start, end time.Time
	cpu        time.Duration // process CPU spent during the call
}

type recorder struct{ spans []span }

func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens a span; finish closes it. The CPU field holds the start
// reading until finish turns it into a delta.
func (r *recorder) begin(name string, parent, query int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, query: query, cpu: processCPU(), start: time.Now()})
	return len(r.spans) - 1
}

func (r *recorder) finish(i int) {
	s := &r.spans[i]
	s.end = time.Now()
	s.cpu = processCPU() - s.cpu
}

// do runs fn inside a new span and returns the span's index.
func (r *recorder) do(name string, parent, query int, fn func()) int {
	i := r.begin(name, parent, query)
	fn()
	r.finish(i)
	return i
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is each span name's total duration minus the time its child
// spans cover. Calls never overlap, so children never overlap either.
func (r *recorder) selfTime() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.name] += s.dur() - child[i]
	}
	return out
}

// total sums duration and CPU over the spans with the given name.
func (r *recorder) total(name string) (d, cpu time.Duration, n int) {
	for _, s := range r.spans {
		if s.name == name {
			d += s.dur()
			cpu += s.cpu
			n++
		}
	}
	return d, cpu, n
}

func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// Collection rule for a replayed flood: the benchmark's own, the same
// quiet-window rule with p2pstudy's default -quiesce of 10ms, so the
// replayed last hit and the study's collect span end by one rule.
const (
	replayQuiet   = 10 * time.Millisecond
	replayMaxWait = time.Second
)

// arrivals gathers one flood's results as they arrive.
type arrivals struct {
	mu    sync.Mutex
	start time.Time
	times []time.Duration
	last  time.Time
}

func (a *arrivals) arrive() {
	now := time.Now()
	a.mu.Lock()
	a.times = append(a.times, now.Sub(a.start))
	a.last = now
	a.mu.Unlock()
}

// wait returns once no result has arrived for replayQuiet.
func (a *arrivals) wait() {
	for {
		a.mu.Lock()
		last := a.last
		a.mu.Unlock()
		if last.IsZero() {
			last = a.start
		}
		if time.Since(last) >= replayQuiet || time.Since(a.start) >= replayMaxWait {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// replayOut is what the replay hands to the per-layer metrics.
type replayOut struct {
	rec        recorder
	firstMS    map[string][]float64 // per network: first result of each flood
	lastMS     map[string][]float64 // per network: last result of each flood
	results    map[string][]float64 // per network: results per flood
	downloadMB map[string]float64   // per network
	bodies     [][]byte             // distinct fetched bodies
	scans      int
	memoHits   int
	qhPayloads [][]byte
	srPayloads [][]byte
	trace      *dataset.Trace
	events     []obs.Event
}

// verdict is one distinct transfer's outcome. Like the study's fetch
// cache, the replay fetches and scans each transfer key once and reuses
// the verdict for every response that names it.
type verdict struct {
	body    []byte
	err     error
	malware string
}

func (v verdict) apply(r *dataset.ResponseRecord) {
	if v.err != nil {
		r.DownloadError = v.err.Error()
		return
	}
	r.Downloaded = true
	r.BodySize = int64(len(v.body))
	r.Malware = v.malware
}

// fetchFunc returns the verdict for a transfer key, downloading it inside
// a span of the given layer the first time.
type fetchFunc func(layer, key string, parent, q int, download func() ([]byte, error)) verdict

// runReplay replays the study of one universe seed: both universes
// built, then every query of the study issued, its responses fetched,
// scanned and added to a trace, in that order, one call at a time.
func runReplay(seed uint64, queries int) (*replayOut, error) {
	out := &replayOut{
		firstMS: map[string][]float64{}, lastMS: map[string][]float64{}, results: map[string][]float64{},
		downloadMB: map[string]float64{},
		trace:      dataset.NewTrace(),
	}
	rec := &out.rec
	lwCat, ftCat := malware.LimeWireCatalog(), malware.OpenFTCatalog()
	engine, err := scanner.FromCatalogs(lwCat, ftCat)
	if err != nil {
		return nil, err
	}
	var lw *netsim.LimeWireNet
	var ft *netsim.OpenFTNet
	rec.do("netsim.build_lw", -1, -1, func() { lw, err = netsim.BuildLimeWire(netsim.LimeWireConfig{Seed: seed, Catalog: lwCat}) })
	if err != nil {
		return nil, err
	}
	defer lw.Close()
	rec.do("netsim.build_ft", -1, -1, func() { ft, err = netsim.BuildOpenFT(netsim.OpenFTConfig{Seed: seed, Catalog: ftCat}) })
	if err != nil {
		return nil, err
	}
	defer ft.Close()

	clock := simclock.NewVirtual(simclock.DefaultEpoch)
	tracer := obs.NewTracer(clock, "replay")
	seen := map[[md5.Size]byte]bool{}
	scan := func(parent, q int, body []byte) (string, bool) {
		var sum [md5.Size]byte
		var dets []scanner.Detection
		rec.do("scanner.scan", parent, q, func() { sum, dets = engine.ScanSum(body) })
		out.scans++
		if seen[sum] {
			out.memoHits++
		} else {
			seen[sum] = true
			out.bodies = append(out.bodies, body)
		}
		if len(dets) > 0 {
			return dets[0].Family, true
		}
		return "", false
	}
	cache := map[string]verdict{}
	fetch := func(layer, key string, parent, q int, download func() ([]byte, error)) verdict {
		if v, ok := cache[layer+" "+key]; ok {
			return v
		}
		var v verdict
		rec.do(layer+".download", parent, q, func() { v.body, v.err = download() })
		out.downloadMB[layer] += float64(len(v.body)) / (1 << 20)
		if v.err == nil {
			v.malware, _ = scan(parent, q, v.body)
		}
		cache[layer+" "+key] = v
		return v
	}
	if err := replayLimeWire(seed, queries, lw, out, tracer, fetch); err != nil {
		return nil, err
	}
	if err := replayOpenFT(seed, queries, ft, out, tracer, fetch); err != nil {
		return nil, err
	}
	rec.do("dataset.write_jsonl", -1, -1, func() { err = out.trace.WriteJSONL(io.Discard) })
	out.events = tracer.Events()
	return out, err
}

func replayLimeWire(seed uint64, queries int, lw *netsim.LimeWireNet, out *replayOut, tracer *obs.Tracer, fetch fetchFunc) error {
	rec := &out.rec
	var (
		mu      sync.Mutex
		current guid.GUID
		hits    []*gnutella.QueryHit
		arr     *arrivals
	)
	clientIP := net.IPv4(156, 56, 1, 10)
	client := gnutella.NewNode(gnutella.Config{
		Role: gnutella.Leaf, Transport: lw.Mem,
		ListenAddr:  fmt.Sprintf("%s:6346", clientIP),
		AdvertiseIP: clientIP, AdvertisePort: 6346,
		UserAgent: "LimeWire/4.10.9-instrumented", Vendor: "LIME",
		OnQueryHit: func(qh *gnutella.QueryHit, m *gnutella.Message) {
			mu.Lock()
			defer mu.Unlock()
			if m.GUID != current || arr == nil {
				return
			}
			cp := *qh
			hits = append(hits, &cp)
			out.qhPayloads = append(out.qhPayloads, append([]byte(nil), m.Payload...))
			arr.arrive()
		},
	})
	if err := client.Start(); err != nil {
		return err
	}
	defer client.Close()
	for _, addr := range lw.UltrapeerAddrs() {
		if err := client.Connect(addr); err != nil {
			return err
		}
	}
	gen, err := workload.NewGenerator(stats.NewRNG(seed, 0x11F0), workload.DefaultCorpus(), 1.0)
	if err != nil {
		return err
	}
	for q := 0; q < queries; q++ {
		term := gen.Next()
		tracer.Emit("query", obs.Int("n", int64(q)), obs.String("q", term.Text))
		root := rec.begin("replay.lw.query", -1, q)
		g := guid.New()
		a := &arrivals{}
		var ferr error
		rec.do("gnutella.flood", root, q, func() {
			mu.Lock()
			current, hits, arr = g, nil, a
			a.start = time.Now()
			mu.Unlock()
			if ferr = client.QueryWith(g, term.Text, ""); ferr == nil {
				a.wait()
			}
			mu.Lock()
			arr = nil
			mu.Unlock()
		})
		if ferr != nil {
			return ferr
		}
		mu.Lock()
		got := hits
		mu.Unlock()
		n := 0
		for _, qh := range got {
			n += len(qh.Hits)
		}
		out.results["lw"] = append(out.results["lw"], float64(n))
		if len(a.times) > 0 {
			out.firstMS["lw"] = append(out.firstMS["lw"], ms(a.times[0]))
			out.lastMS["lw"] = append(out.lastMS["lw"], ms(a.times[len(a.times)-1]))
		}
		for _, qh := range got {
			for _, h := range qh.Hits {
				name := p2p.SanitizeFilename(h.Name)
				r := dataset.ResponseRecord{
					Time: simclock.DefaultEpoch, Network: dataset.LimeWire, Query: term.Text,
					Filename: name, Size: int64(h.Size), SourceIP: qh.IP.String(), SourcePort: qh.Port,
					ServentID: qh.ServentID.String(), Vendor: qh.Vendor,
					PushFlagged:  qh.Flags&gnutella.QHDPush != 0,
					Downloadable: archive.IsDownloadable(name),
				}
				if r.Downloadable {
					key := fmt.Sprintf("%s:%d/%d/%d", qh.IP, qh.Port, h.Index, h.Size)
					fetch("gnutella", key, root, q, func() ([]byte, error) {
						if r.PushFlagged {
							return client.DownloadViaPush(qh.ServentID, h.Index, h.Name, 5*time.Second)
						}
						return gnutella.Download(lw.Mem, fmt.Sprintf("%s:%d", qh.IP, qh.Port), h.Index, h.Name)
					}).apply(&r)
					tracer.Emit("download", obs.String("file", r.Filename), obs.Int("size", r.BodySize))
				}
				rec.do("dataset.add", root, q, func() { out.trace.Add(r) })
			}
		}
		out.trace.QueriesSent[dataset.LimeWire]++
		rec.finish(root)
	}
	return nil
}

func replayOpenFT(seed uint64, queries int, ft *netsim.OpenFTNet, out *replayOut, tracer *obs.Tracer, fetch fetchFunc) error {
	rec := &out.rec
	var (
		mu      sync.Mutex
		current uint32
		results []openft.SearchResp
		arr     *arrivals
	)
	clientIP := net.IPv4(156, 56, 1, 11)
	client := openft.NewNode(openft.Config{
		Class: openft.ClassUser, Transport: ft.Mem,
		ListenAddr:  fmt.Sprintf("%s:1216", clientIP),
		AdvertiseIP: clientIP, AdvertisePort: 1216,
		Alias: "giFT-instrumented",
		OnSearchResult: func(r openft.SearchResp) {
			mu.Lock()
			defer mu.Unlock()
			if r.ID != current || arr == nil {
				return
			}
			results = append(results, r)
			arr.arrive()
		},
	})
	if err := client.Start(); err != nil {
		return err
	}
	defer client.Close()
	for _, addr := range ft.SearchAddrs() {
		if err := client.Connect(addr); err != nil {
			return err
		}
	}
	gen, err := workload.NewGenerator(stats.NewRNG(seed, 0x0F70), workload.DefaultCorpus(), 1.0)
	if err != nil {
		return err
	}
	for q := 0; q < queries; q++ {
		term := gen.Next()
		tracer.Emit("query", obs.Int("n", int64(q)), obs.String("q", term.Text))
		root := rec.begin("replay.ft.query", -1, q)
		id := openft.NewSearchID()
		a := &arrivals{}
		var serr error
		rec.do("openft.search", root, q, func() {
			mu.Lock()
			current, results, arr = id, nil, a
			a.start = time.Now()
			mu.Unlock()
			if serr = client.SearchWith(id, term.Text); serr == nil {
				a.wait()
			}
			mu.Lock()
			arr = nil
			mu.Unlock()
		})
		if serr != nil {
			return serr
		}
		mu.Lock()
		got := results
		mu.Unlock()
		out.results["ft"] = append(out.results["ft"], float64(len(got)))
		if len(a.times) > 0 {
			out.firstMS["ft"] = append(out.firstMS["ft"], ms(a.times[0]))
			out.lastMS["ft"] = append(out.lastMS["ft"], ms(a.times[len(a.times)-1]))
		}
		for _, sr := range got {
			p := sr.Encode()
			out.srPayloads = append(out.srPayloads, append([]byte(nil), p.Payload...))
			p.Release()
			name := p2p.SanitizeFilename(sr.Path)
			r := dataset.ResponseRecord{
				Time: simclock.DefaultEpoch, Network: dataset.OpenFT, Query: term.Text,
				Filename: name, Size: int64(sr.Size), SourceIP: sr.IP.String(), SourcePort: sr.Port,
				Downloadable: archive.IsDownloadable(name),
			}
			if r.Downloadable {
				addr := fmt.Sprintf("%s:%d", sr.IP, sr.Port)
				fetch("openft", addr+"/"+sr.MD5, root, q, func() ([]byte, error) {
					return openft.Download(ft.Mem, addr, sr.MD5)
				}).apply(&r)
				tracer.Emit("download", obs.String("file", r.Filename), obs.Int("size", r.BodySize))
			}
			rec.do("dataset.add", root, q, func() { out.trace.Add(r) })
		}
		out.trace.QueriesSent[dataset.OpenFT]++
		rec.finish(root)
	}
	return nil
}
