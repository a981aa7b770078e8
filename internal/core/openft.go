package core

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"time"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/openft"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/simclock"
)

// ftDone is one finished (downloaded, scanned) response awaiting commit.
type ftDone struct {
	rec    dataset.ResponseRecord
	wallUS int64
	// trail is the cache entries the fetch touched (advertised source
	// first, then alternates), for attempt-span emission in commit order.
	trail []*fetchEntry
}

// runOpenFT drives the instrumented giFT/OpenFT client over the simulated
// OpenFT universe, appending records to tr. Per-query work is pipelined
// (see pipeline.go); the committer reproduces the sequential engine's
// exact record and event order.
func (s *Study) runOpenFT(tr *dataset.Trace) error {
	net_, err := netsim.BuildOpenFT(*s.cfg.OpenFT)
	if err != nil {
		return err
	}
	defer net_.Close()

	var sink floodSink[openft.SearchResp]
	clientIP := net.IPv4(156, 56, 1, 11)
	client := openft.NewNode(openft.Config{
		Class:       openft.ClassUser,
		Transport:   net_.Mem,
		ListenAddr:  fmt.Sprintf("%s:1216", clientIP),
		AdvertiseIP: clientIP, AdvertisePort: 1216,
		Alias: "giFT-instrumented",
		OnSearchResult: func(r openft.SearchResp) {
			sink.add(openft.SearchFloodID(r.ID), r)
		},
	})
	if err := client.Start(); err != nil {
		return err
	}
	defer client.Close()
	for _, addr := range net_.SearchAddrs() {
		if err := client.Connect(addr); err != nil {
			return fmt.Errorf("core: connecting instrumented openft client: %w", err)
		}
	}

	gen, err := s.newWorkload(0x0F70)
	if err != nil {
		return err
	}
	fx := s.newNetFaults("openft", net_.Mem)
	floods := net_.Mem.Floods()
	cache := newFetchCache()
	total := s.totalQueries()
	interval := 24 * time.Hour / time.Duration(s.cfg.QueriesPerDay)
	clock := simclock.NewVirtual(s.cfg.Epoch)
	trace := obs.NewTracer(clock, "openft")
	s.addTracer(trace)
	spans := s.newSpanRecorder("openft")
	pl := newPipeline(s.cfg.Workers, ftMet)
	defer pl.stop()
	var tl tally
	var errs errBox
	if fx != nil {
		// OpenFT churn is driven by the fault plan only: StudyConfig's
		// ChurnPerDay keeps its historical LimeWire-leaves meaning, so
		// clean-run traces are unchanged.
		churn := s.cfg.Faults.ChurnPerDay
		for d := 1; d < s.cfg.Days; d++ {
			day := d
			clock.Schedule(time.Duration(d)*24*time.Hour, func(now time.Time) {
				if errs.get() != nil {
					return
				}
				// Every in-flight download must finish against the
				// pre-boundary population and breaker state first.
				pl.barrier()
				if opened, closed := fx.br.advance(); opened+closed > 0 {
					ftMet.circuitOpen.Add(int64(opened))
					trace.Emit("circuit", obs.Int("day", int64(day)), obs.Int("opened", int64(opened)), obs.Int("closed", int64(closed)))
					// The barrier drained the pipeline, so emitting from
					// the clock goroutine keeps span order deterministic.
					spans.AddWallUS(obs.Span{Time: now, Seq: int64(day), Stage: obs.StageCircuit,
						Detail: fmt.Sprintf("opened=%d closed=%d", opened, closed)}, 0)
				}
				if churn <= 0 {
					return
				}
				replaced, err := net_.ChurnUsers(churn)
				if err != nil {
					errs.set(fmt.Errorf("core: openft churn on day %d: %w", day, err))
					return
				}
				trace.Emit("churn", obs.Int("day", int64(day)), obs.Int("replaced", int64(replaced)))
				s.progress("openft: day %d churned %d users", day, replaced)
			})
		}
	}
	for i := 0; i < total; i++ {
		i := i
		clock.Schedule(time.Duration(i)*interval, func(now time.Time) {
			if errs.get() != nil {
				return
			}
			// Term draw stays on the clock goroutine (generator order is
			// issue order); the search runs on the pipeline's collector
			// goroutine.
			term := gen.Next()
			emitQuery := func() {
				trace.EmitAt(now, "query", obs.Int("n", int64(i)), obs.String("q", term.Text), obs.String("category", string(term.Category)))
			}
			var results []openft.SearchResp
			var out []ftDone
			var floodErr error
			task := &pipeTask{seq: int64(i), at: now, spans: spans}
			task.collect = func() {
				id := openft.NewSearchID()
				collectStart := wallClock.Now()
				floodErr = sink.collect(floods, openft.SearchFloodID(id), func() error {
					return client.SearchWith(id, term.Text)
				})
				if floodErr != nil {
					floodErr = fmt.Errorf("query %d %q: %w", i, term.Text, floodErr)
					return
				}
				ftMet.stageCollect.ObserveDuration(simclock.Since(wallClock, collectStart))
				results = sink.take()
				sortFTResults(results)
			}
			task.run = func() {
				if floodErr != nil {
					return
				}
				fetchStart := wallClock.Now()
				out = make([]ftDone, 0, len(results))
				for _, r := range results {
					name := p2p.SanitizeFilename(r.Path)
					d := ftDone{rec: dataset.ResponseRecord{
						Time:          now,
						Network:       dataset.OpenFT,
						Query:         term.Text,
						QueryCategory: string(term.Category),
						Filename:      name,
						Size:          int64(r.Size),
						SourceIP:      r.IP.String(),
						SourcePort:    r.Port,
						SourceClass:   ipaddr.Classify(r.IP).String(),
						ContentID:     r.MD5,
						Downloadable:  archive.IsDownloadable(name),
					}}
					if d.rec.Downloadable {
						task.downloads++
						var wallStart time.Time
						if s.cfg.TraceWallLatency {
							wallStart = wallClock.Now()
						}
						res, trail := s.fetchOpenFT(net_, r, results, cache, fx, &task.scanNS)
						applyResult(&d.rec, res)
						d.trail = trail
						if s.cfg.TraceWallLatency {
							d.wallUS = int64(simclock.Since(wallClock, wallStart) / time.Microsecond)
						}
					}
					out = append(out, d)
				}
				ftMet.stageFetch.ObserveDuration(simclock.Since(wallClock, fetchStart))
			}
			task.post = func() {
				trails := make([][]*fetchEntry, 0, len(out))
				for _, d := range out {
					trails = append(trails, d.trail)
				}
				emitAttemptSpans(spans, task.seq, now, trails)
			}
			task.commit = func() {
				// The sequential engine emitted the query event before
				// flooding, so a failed flood still gets its event.
				emitQuery()
				if floodErr != nil {
					errs.set(floodErr)
					return
				}
				tr.QueriesSent[dataset.OpenFT]++
				tl.queries++
				tl.responses += len(out)
				ftMet.queries.Inc()
				ftMet.responses.Add(int64(len(out)))
				trace.EmitAt(now, "responses", obs.Int("n", int64(i)), obs.Int("count", int64(len(out))))
				for _, d := range out {
					rec := d.rec
					if rec.Downloadable {
						attrs := []obs.Attr{
							obs.String("source", fmt.Sprintf("%s:%d", rec.SourceIP, rec.SourcePort)),
							obs.String("file", rec.Filename),
							obs.Int("size", rec.BodySize),
							obs.String("verdict", downloadVerdict(&rec)),
						}
						if rec.AltSource != "" {
							attrs = append(attrs, obs.String("alt", rec.AltSource))
						}
						if s.cfg.TraceWallLatency {
							attrs = append(attrs, obs.Int("wall_us", d.wallUS))
						}
						trace.EmitAt(now, "download", attrs...)
						if rec.DownloadError != "" {
							ftMet.downloadsErr.Inc()
							ftMet.fetchFailed.Inc()
						} else {
							ftMet.downloadsOK.Inc()
							if rec.AltSource != "" {
								ftMet.altOK.Inc()
							}
						}
						if fx != nil {
							// Outcomes recorded in commit order keep the
							// breaker schedule-independent.
							fx.br.record(rec.SourceIP, rec.DownloadError == "" && rec.AltSource == "")
						}
						if rec.Malware != "" {
							tl.malware++
							ftMet.malware.Inc()
						}
					}
					tr.Add(rec)
				}
				if (i+1)%500 == 0 {
					s.progress("openft: %d/%d queries, %d records", i+1, total, len(tr.Records))
				}
			}
			pl.submit(task)
		})
	}
	s.scheduleProgress(clock, trace, "openft", &tl, pl.barrier)
	clock.Run(0)
	pl.stop()
	return errs.get()
}

// sortFTResults orders drained search results by stable response identity
// so record and event order is independent of responder goroutine
// scheduling.
func sortFTResults(results []openft.SearchResp) {
	sort.Slice(results, func(a, b int) bool {
		ra, rb := results[a], results[b]
		if c := bytes.Compare(ra.IP, rb.IP); c != 0 {
			return c < 0
		}
		if ra.Port != rb.Port {
			return ra.Port < rb.Port
		}
		if ra.MD5 != rb.MD5 {
			return ra.MD5 < rb.MD5
		}
		return ra.Path < rb.Path
	})
}

// fetchOpenFT fetches a result by MD5 from the sharing user and returns
// its labelled verdict plus the trail of cache entries it touched (for
// attempt-span emission). Under an active fault plan a retryably-failed
// fetch falls back to alternate sources: other responders in the same
// search's sorted result list advertising the same MD5, tried in result
// order so the choice is deterministic.
func (s *Study) fetchOpenFT(net_ *netsim.OpenFTNet, r openft.SearchResp, results []openft.SearchResp, cache *fetchCache, fx *netFaults, scanNS *int64) (fetchResult, []*fetchEntry) {
	e := s.fetchFTOnce(net_, r, cache, fx, scanNS)
	trail := []*fetchEntry{e}
	res := e.res
	if fx == nil || res.err == nil || !openft.Retryable(res.err) {
		return res, trail
	}
	for _, a := range results {
		if a.MD5 != r.MD5 {
			continue
		}
		if a.IP.Equal(r.IP) && a.Port == r.Port {
			continue // the source that just failed
		}
		ae := s.fetchFTOnce(net_, a, cache, fx, scanNS)
		trail = append(trail, ae)
		if alt := ae.res; alt.err == nil {
			alt.alt = fmt.Sprintf("%s:%d", a.IP, a.Port)
			return alt, trail
		}
	}
	return res, trail
}

// fetchFTOnce fetches one result through the deduplicating cache,
// singleflighted per (hash, host), and returns its entry. In fault mode
// the closure dials through the injector-wrapped transport with
// retry/backoff, after the per-host circuit breaker agrees; fault
// decisions are PRF-keyed by (plan seed, cache key, attempt), so the
// cached result is the same no matter which worker fetches first. Every
// path leaves a per-attempt log in the entry (the clean path as a single
// attempt), fate-classified into stable tokens for span emission.
func (s *Study) fetchFTOnce(net_ *netsim.OpenFTNet, r openft.SearchResp, cache *fetchCache, fx *netFaults, scanNS *int64) *fetchEntry {
	key := "md5/" + r.MD5 + "@" + r.IP.String()
	addr := fmt.Sprintf("%s:%d", r.IP, r.Port)
	return cache.do(key, addr, func() fetchResult {
		if fx != nil {
			if !fx.br.allowed(r.IP.String()) {
				return fetchResult{err: errCircuitOpen, attempts: []p2p.Attempt{{Fate: fateCircuitOpen}}}
			}
			body, attempts, err := openft.DownloadAttempts(fx.inj.Transport(key), addr, r.MD5, fx.policy)
			res := s.labelFetch(body, err, scanNS)
			res.attempts = attempts
			return res
		}
		start := wallClock.Now()
		body, err := openft.Download(net_.Mem, addr, r.MD5)
		wall := simclock.Since(wallClock, start)
		res := s.labelFetch(body, err, scanNS)
		res.attempts = []p2p.Attempt{{Fate: openft.Fate(err), Wall: wall}}
		return res
	})
}
