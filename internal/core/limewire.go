package core

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"time"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/guid"
	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/simclock"
)

// lwHit is one file entry of a query hit, with the hit descriptor that
// carried it.
type lwHit struct {
	qh  gnutella.QueryHit
	hit gnutella.Hit
}

// lwDone is one finished (downloaded, scanned) response awaiting commit.
type lwDone struct {
	rec    dataset.ResponseRecord
	wallUS int64
	// trail is the cache entries the fetch touched (advertised source
	// first, then alternates), for attempt-span emission in commit order.
	trail []*fetchEntry
}

// runLimeWire drives the instrumented LimeWire client over the simulated
// Gnutella universe, appending records to tr. Per-query work is pipelined
// (see pipeline.go); the committer reproduces the sequential engine's
// exact record and event order.
func (s *Study) runLimeWire(tr *dataset.Trace) error {
	net_, err := netsim.BuildLimeWire(*s.cfg.LimeWire)
	if err != nil {
		return err
	}
	defer net_.Close()

	var sink floodSink[lwHit]
	clientIP := net.IPv4(156, 56, 1, 10) // the measurement host
	client := gnutella.NewNode(gnutella.Config{
		Role:        gnutella.Leaf,
		Transport:   net_.Mem,
		ListenAddr:  fmt.Sprintf("%s:6346", clientIP),
		AdvertiseIP: clientIP, AdvertisePort: 6346,
		UserAgent: "LimeWire/4.10.9-instrumented", Vendor: "LIME",
		OnQueryHit: func(qh *gnutella.QueryHit, m *gnutella.Message) {
			hits := make([]lwHit, len(qh.Hits))
			for k, h := range qh.Hits {
				hits[k] = lwHit{qh: *qh, hit: h}
			}
			sink.add(p2p.FloodID(m.GUID), hits...)
		},
	})
	if err := client.Start(); err != nil {
		return err
	}
	defer client.Close()
	for _, addr := range net_.UltrapeerAddrs() {
		if err := client.Connect(addr); err != nil {
			return fmt.Errorf("core: connecting instrumented client: %w", err)
		}
	}

	gen, err := s.newWorkload(0x11F0)
	if err != nil {
		return err
	}
	fx := s.newNetFaults("limewire", net_.Mem)
	floods := net_.Mem.Floods()
	cache := newFetchCache()
	pushLocks := newKeyedLocks()
	total := s.totalQueries()
	interval := 24 * time.Hour / time.Duration(s.cfg.QueriesPerDay)

	// The trace is event-driven: query events (and day-boundary churn
	// events) are scheduled on a virtual clock and fired in timestamp
	// order, so a month of trace time elapses in however long the
	// in-memory network takes to answer.
	clock := simclock.NewVirtual(s.cfg.Epoch)
	trace := obs.NewTracer(clock, "limewire")
	s.addTracer(trace)
	spans := s.newSpanRecorder("limewire")
	pl := newPipeline(s.cfg.Workers, lwMet)
	defer pl.stop()
	var tl tally
	var errs errBox
	churn := s.cfg.ChurnPerDay
	if fx != nil && s.cfg.Faults.ChurnPerDay > churn {
		churn = s.cfg.Faults.ChurnPerDay
	}
	if churn > 0 || fx != nil {
		for d := 1; d < s.cfg.Days; d++ {
			day := d
			clock.Schedule(time.Duration(d)*24*time.Hour, func(now time.Time) {
				if errs.get() != nil {
					return
				}
				// Churn and breaker epochs mutate shared state: every
				// in-flight download must finish against the pre-boundary
				// population first, as it did when queries were processed
				// synchronously.
				pl.barrier()
				if fx != nil {
					if opened, closed := fx.br.advance(); opened+closed > 0 {
						lwMet.circuitOpen.Add(int64(opened))
						trace.Emit("circuit", obs.Int("day", int64(day)), obs.Int("opened", int64(opened)), obs.Int("closed", int64(closed)))
						// The barrier drained the pipeline, so emitting from
						// the clock goroutine keeps span order deterministic.
						spans.AddWallUS(obs.Span{Time: now, Seq: int64(day), Stage: obs.StageCircuit,
							Detail: fmt.Sprintf("opened=%d closed=%d", opened, closed)}, 0)
					}
				}
				if churn <= 0 {
					return
				}
				replaced, err := net_.ChurnHonest(churn)
				if err != nil {
					errs.set(fmt.Errorf("core: churn on day %d: %w", day, err))
					return
				}
				trace.Emit("churn", obs.Int("day", int64(day)), obs.Int("replaced", int64(replaced)))
				s.progress("limewire: day %d churned %d honest leaves", day, replaced)
			})
		}
	}
	for i := 0; i < total; i++ {
		i := i
		clock.Schedule(time.Duration(i)*interval, func(now time.Time) {
			if errs.get() != nil {
				return
			}
			// The callback only draws the term (the generator stream must
			// advance in issue order) and submits; the flood itself runs on
			// the pipeline's collector goroutine.
			term := gen.Next()
			emitQuery := func() {
				trace.EmitAt(now, "query", obs.Int("n", int64(i)), obs.String("q", term.Text), obs.String("category", string(term.Category)))
			}
			var hits []lwHit
			var out []lwDone
			var floodErr error
			task := &pipeTask{seq: int64(i), at: now, spans: spans}
			task.collect = func() {
				g := guid.New()
				collectStart := wallClock.Now()
				floodErr = sink.collect(floods, p2p.FloodID(g), func() error {
					return client.QueryWith(g, term.Text, "")
				})
				if floodErr != nil {
					floodErr = fmt.Errorf("query %d %q: %w", i, term.Text, floodErr)
					return
				}
				lwMet.stageCollect.ObserveDuration(simclock.Since(wallClock, collectStart))
				hits = sink.take()
				sortLWHits(hits)
			}
			task.run = func() {
				if floodErr != nil {
					return
				}
				fetchStart := wallClock.Now()
				out = make([]lwDone, 0, len(hits))
				for _, h := range hits {
					name := p2p.SanitizeFilename(h.hit.Name)
					d := lwDone{rec: dataset.ResponseRecord{
						Time:          now,
						Network:       dataset.LimeWire,
						Query:         term.Text,
						QueryCategory: string(term.Category),
						Filename:      name,
						Size:          int64(h.hit.Size),
						SourceIP:      h.qh.IP.String(),
						SourcePort:    h.qh.Port,
						SourceClass:   ipaddr.Classify(h.qh.IP).String(),
						ServentID:     h.qh.ServentID.String(),
						ContentID:     h.hit.Extensions,
						Vendor:        h.qh.Vendor,
						PushFlagged:   h.qh.Flags&gnutella.QHDPush != 0,
						Downloadable:  archive.IsDownloadable(name),
					}}
					if d.rec.Downloadable {
						task.downloads++
						var wallStart time.Time
						if s.cfg.TraceWallLatency {
							wallStart = wallClock.Now()
						}
						res, trail := s.fetchLimeWire(client, net_, h, hits, cache, pushLocks, fx, &task.scanNS)
						applyResult(&d.rec, res)
						d.trail = trail
						if s.cfg.TraceWallLatency {
							d.wallUS = int64(simclock.Since(wallClock, wallStart) / time.Microsecond)
						}
					}
					out = append(out, d)
				}
				lwMet.stageFetch.ObserveDuration(simclock.Since(wallClock, fetchStart))
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
				tr.QueriesSent[dataset.LimeWire]++
				tl.queries++
				tl.responses += len(out)
				lwMet.queries.Inc()
				lwMet.responses.Add(int64(len(out)))
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
							lwMet.downloadsErr.Inc()
							lwMet.fetchFailed.Inc()
						} else {
							lwMet.downloadsOK.Inc()
							if rec.AltSource != "" {
								lwMet.altOK.Inc()
							}
						}
						if fx != nil && !rec.PushFlagged {
							// The advertised source failed whenever the
							// fetch errored or had to fall back to an
							// alternate; the committer records outcomes
							// in commit order so breaker state is
							// schedule-independent.
							fx.br.record(rec.SourceIP, rec.DownloadError == "" && rec.AltSource == "")
						}
						if rec.Malware != "" {
							tl.malware++
							lwMet.malware.Inc()
						}
					}
					tr.Add(rec)
				}
				if (i+1)%500 == 0 {
					s.progress("limewire: %d/%d queries, %d records", i+1, total, len(tr.Records))
				}
			}
			pl.submit(task)
		})
	}
	s.scheduleProgress(clock, trace, "limewire", &tl, pl.barrier)
	clock.Run(0)
	pl.stop()
	return errs.get()
}

// sortLWHits orders drained hits by stable response identity so record and
// event order is independent of responder goroutine scheduling.
func sortLWHits(hits []lwHit) {
	sort.Slice(hits, func(a, b int) bool {
		ha, hb := hits[a], hits[b]
		if c := bytes.Compare(ha.qh.IP, hb.qh.IP); c != 0 {
			return c < 0
		}
		if ha.qh.Port != hb.qh.Port {
			return ha.qh.Port < hb.qh.Port
		}
		if ha.hit.Index != hb.hit.Index {
			return ha.hit.Index < hb.hit.Index
		}
		if ha.hit.Name != hb.hit.Name {
			return ha.hit.Name < hb.hit.Name
		}
		return ha.hit.Size < hb.hit.Size
	})
}

// fetchLimeWire fetches a downloadable hit (directly, or via push for
// firewalled sources) and returns its labelled verdict plus the trail of
// cache entries it touched (for attempt-span emission). Under an active
// fault plan a retryably-failed direct fetch falls back to alternate
// sources: other responders in the same query's sorted hit list that
// advertise the same content (matched by URN when the hit carried one,
// else by name+size), tried in hit order so the choice is deterministic.
func (s *Study) fetchLimeWire(client *gnutella.Node, net_ *netsim.LimeWireNet, h lwHit, hits []lwHit, cache *fetchCache, pushLocks *keyedLocks, fx *netFaults, scanNS *int64) (fetchResult, []*fetchEntry) {
	e := s.fetchLWOnce(client, net_, h, cache, pushLocks, fx, scanNS)
	trail := []*fetchEntry{e}
	res := e.res
	if fx == nil || res.err == nil || h.qh.Flags&gnutella.QHDPush != 0 || !gnutella.Retryable(res.err) {
		return res, trail
	}
	want := lwAltKey(h)
	for _, a := range hits {
		if lwAltKey(a) != want || a.qh.Flags&gnutella.QHDPush != 0 {
			continue
		}
		if a.qh.IP.Equal(h.qh.IP) && a.qh.Port == h.qh.Port {
			continue // the source that just failed
		}
		ae := s.fetchLWOnce(client, net_, a, cache, pushLocks, fx, scanNS)
		trail = append(trail, ae)
		if alt := ae.res; alt.err == nil {
			alt.alt = fmt.Sprintf("%s:%d", a.qh.IP, a.qh.Port)
			return alt, trail
		}
	}
	return res, trail
}

// lwAltKey is the content identity used to group alternate sources: the
// HUGE urn:sha1 when the hit advertised one, else advertised name+size.
func lwAltKey(h lwHit) string {
	if h.hit.Extensions != "" {
		return h.hit.Extensions
	}
	return fmt.Sprintf("%s/%d", h.hit.Name, h.hit.Size)
}

// fetchLWOnce fetches one hit through the deduplicating cache and returns
// its entry. The cache gives singleflight semantics per source endpoint +
// index, and the keyed lock serializes push downloads per (servent,
// index) so concurrent workers cannot collide on the push-callback
// registration. In fault mode the closure dials through the
// injector-wrapped transport with retry/backoff, after the per-host
// circuit breaker agrees; fault decisions are PRF-keyed by (plan seed,
// cache key, attempt), so the cached result is the same no matter which
// worker fetches first. Every path leaves a per-attempt log in the entry
// (the clean and push paths as a single attempt), fate-classified into
// stable tokens for span emission.
func (s *Study) fetchLWOnce(client *gnutella.Node, net_ *netsim.LimeWireNet, h lwHit, cache *fetchCache, pushLocks *keyedLocks, fx *netFaults, scanNS *int64) *fetchEntry {
	key := fmt.Sprintf("%s:%d/%d/%d", h.qh.IP, h.qh.Port, h.hit.Index, h.hit.Size)
	addr := fmt.Sprintf("%s:%d", h.qh.IP, h.qh.Port)
	push := h.qh.Flags&gnutella.QHDPush != 0
	return cache.do(key, addr, func() fetchResult {
		var body []byte
		var err error
		var attempts []p2p.Attempt
		switch {
		case push:
			// Push transfers ride the overlay control plane, which the
			// injector does not wrap; they keep the clean path.
			unlock := pushLocks.lock(fmt.Sprintf("%s/%d", h.qh.ServentID, h.hit.Index))
			start := wallClock.Now()
			body, err = client.DownloadViaPush(h.qh.ServentID, h.hit.Index, h.hit.Name, 5*time.Second)
			attempts = []p2p.Attempt{{Fate: gnutella.Fate(err), Wall: simclock.Since(wallClock, start)}}
			unlock()
		case fx != nil:
			if !fx.br.allowed(h.qh.IP.String()) {
				return fetchResult{err: errCircuitOpen, attempts: []p2p.Attempt{{Fate: fateCircuitOpen}}}
			}
			body, attempts, err = gnutella.DownloadAttempts(fx.inj.Transport(key), addr, h.hit.Index, h.hit.Name, fx.policy)
		default:
			start := wallClock.Now()
			body, err = gnutella.Download(net_.Mem, addr, h.hit.Index, h.hit.Name)
			attempts = []p2p.Attempt{{Fate: gnutella.Fate(err), Wall: simclock.Since(wallClock, start)}}
		}
		res := s.labelFetch(body, err, scanNS)
		res.attempts = attempts
		return res
	})
}
