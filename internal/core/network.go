package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/bufpool"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/simclock"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

// adapter is one network's side of the study: the protocol-specific
// pieces of measuring it, over hits of type H. runNetwork owns the rest —
// issue order, the pipeline and commit order, the day-boundary barrier,
// breaker and churn schedule, alternate-source fallback, and every record,
// span and metric — so a network implements only these methods.
type adapter[H any] interface {
	// flood returns a fresh flood ID and the call that sends a query for
	// term under it.
	flood(term string) (p2p.FloodID, func() error)
	// response returns a record with h's response fields filled: filename,
	// size, source, content identity and push flag.
	response(h H) dataset.ResponseRecord
	// less orders hits by stable response identity, so record order does
	// not depend on responder goroutine scheduling.
	less(a, b H) bool
	// altKey is h's content identity for alternate-source fallback: hits
	// sharing a key are alternates of each other. A hit with no key ("")
	// neither looks for an alternate nor serves as one.
	altKey(h H) string
	// cacheKey identifies h's transfer in the fetch cache.
	cacheKey(h H) string
	// fetch transfers h's body from addr over tr under policy and logs
	// its attempts. Push transfers ride the overlay, which the injector
	// does not wrap, and take neither.
	fetch(h H, addr string, tr p2p.Transport, policy p2p.RetryPolicy) ([]byte, []p2p.Attempt, error)
	// retryable reports whether a failed fetch may succeed from another
	// source.
	retryable(err error) bool
}

// netInfo is what runNetwork needs to know about a network besides its
// adapter.
type netInfo struct {
	name    string // span and metric scope; progress-line prefix
	network dataset.Network
	stream  uint64   // workload RNG stream
	mem     *p2p.Mem // the universe: flood ledger and the injector's inner transport
	churned string   // what churn replaces, for progress lines
	// churn is the fraction of the honest population replaced at each day
	// boundary in a clean run; under a fault plan the plan's rate applies
	// when it is higher.
	churn float64
	// replace is the universe's Churn: it replaces frac of the honest
	// population and returns how many hosts it replaced.
	replace func(frac float64) (int, error)
}

// runner is one network's study loop.
type runner[H any] struct {
	s     *Study
	info  netInfo
	a     adapter[H]
	sink  *floodSink[H]
	fx    *netFaults
	cache *fetchCache
	met   *netMetrics
	spans *obs.SpanRecorder
	pl    *pipeline
	errs  errBox

	// tr and malware are the network's running totals. The committer
	// goroutine writes them; progress callbacks read them behind a
	// pipeline barrier, which orders the accesses.
	tr      *dataset.Trace
	malware int
}

// runNetwork measures one network through its instrumented client, whose
// hits arrive in sink, appending records to tr. Per-query work is
// pipelined (see pipeline.go); the committer reproduces the sequential
// engine's exact record and span order.
func runNetwork[H any](s *Study, tr *dataset.Trace, info netInfo, sink *floodSink[H], a adapter[H]) error {
	// Every network draws its queries from the same corpus with the same
	// skew, as the instrumented clients did, on its own RNG stream.
	gen, err := workload.NewGenerator(stats.NewRNG(s.cfg.Seed, info.stream), workload.DefaultCorpus(), workload.Skew)
	if err != nil {
		return err
	}
	// The trace is event-driven: queries (and day-boundary churn) are
	// scheduled on a virtual clock and fired in timestamp order, so a
	// month of trace time elapses in however long the in-memory network
	// takes to answer.
	clock := simclock.NewVirtual(simclock.DefaultEpoch)
	r := &runner[H]{
		s: s, info: info, a: a, sink: sink, tr: tr,
		fx:    s.newNetFaults(info.name, info.mem),
		cache: newFetchCache(),
		met:   newNetMetrics(info.name),
		spans: s.newSpanRecorder(info.name),
		pl:    newPipeline(s.cfg.Workers),
	}
	defer r.pl.stop()
	if r.fx != nil {
		r.info.churn = max(r.info.churn, s.cfg.Faults.ChurnPerDay)
	}
	if r.info.churn > 0 || r.fx != nil {
		for day := 1; day < s.cfg.Days; day++ {
			clock.Schedule(time.Duration(day)*24*time.Hour, func(now time.Time) { r.dayBoundary(day, now) })
		}
	}
	interval := 24 * time.Hour / time.Duration(s.cfg.QueriesPerDay)
	for i := 0; i < s.totalQueries(); i++ {
		clock.Schedule(time.Duration(i)*interval, func(now time.Time) {
			if r.errs.get() != nil {
				return
			}
			// The callback only draws the term (the generator stream must
			// advance in issue order) and submits; the flood itself runs on
			// the pipeline's collector goroutine.
			r.pl.submit(r.task(i, now, gen.Next()))
		})
	}
	r.scheduleProgress(clock)
	clock.Run()
	r.pl.stop()
	return r.errs.get()
}

// scheduleProgress emits periodic progress lines on the network's virtual
// clock. Call it after the queries are scheduled so that at a shared
// timestamp the queries fire first and are counted; the barrier drains the
// pipeline so the totals reflect every earlier query.
func (r *runner[H]) scheduleProgress(clock *simclock.Virtual) {
	every := r.s.cfg.ProgressEvery
	if every <= 0 {
		return
	}
	for at := every; at <= time.Duration(r.s.cfg.Days)*24*time.Hour; at += every {
		clock.Schedule(at, func(now time.Time) {
			r.pl.barrier()
			day := float64(at) / float64(24*time.Hour)
			r.s.progress("%s: day %.1f: %d queries, %d responses, %d malware hits",
				r.info.name, day, r.tr.QueriesSent[r.info.network], len(r.tr.Records), r.malware)
		})
	}
}

// dayBoundary opens virtual day `day`: drain the pipeline, then advance
// the breaker, then churn. Breaker epochs and churn mutate shared state,
// so every in-flight download must first finish against the pre-boundary
// population and breaker state, as it did when queries were processed
// synchronously. The drained pipeline has also emitted every earlier
// query's spans, so the circuit and churn spans emitted here from the
// clock goroutine land at a deterministic point in the stream.
func (r *runner[H]) dayBoundary(day int, now time.Time) {
	if r.errs.get() != nil {
		return
	}
	r.pl.barrier()
	if r.fx != nil {
		if opened, closed := r.fx.br.advance(); opened+closed > 0 {
			r.met.circuitOpen.Add(int64(opened))
			r.spans.AddWallUS(obs.Span{Time: now, Seq: int64(day), Stage: obs.StageCircuit,
				Detail: fmt.Sprintf("opened=%d closed=%d", opened, closed)}, 0)
		}
	}
	if r.info.churn <= 0 {
		return
	}
	replaced, err := r.info.replace(r.info.churn)
	if err != nil {
		r.errs.set(fmt.Errorf("churn on day %d: %w", day, err))
		return
	}
	r.spans.AddWallUS(obs.Span{Time: now, Seq: int64(day), Stage: obs.StageChurn,
		Detail: fmt.Sprintf("replaced=%d", replaced)}, 0)
	r.s.progress("%s: day %d churned %d %s", r.info.name, day, replaced, r.info.churned)
}

// task builds query i's pipeline task: collect its flood, fetch and scan
// its downloadable hits, then commit.
func (r *runner[H]) task(i int, now time.Time, term workload.Term) *pipeTask {
	t := &pipeTask{seq: int64(i), at: now, spans: r.spans}
	var hits []H
	var recs []dataset.ResponseRecord
	var floodErr error
	t.collect = func() {
		id, send := r.a.flood(term.Text)
		if hits, floodErr = r.sink.collect(r.info.mem.Floods(), id, send); floodErr != nil {
			floodErr = fmt.Errorf("query %d %q: %w", i, term.Text, floodErr)
			return
		}
		sort.Slice(hits, func(x, y int) bool { return r.a.less(hits[x], hits[y]) })
	}
	t.run = func() {
		if floodErr == nil {
			recs = r.fetchAll(t, now, term, hits)
		}
	}
	t.commit = func() { r.commit(i, recs, floodErr) }
	return t
}

// fetchAll builds one record per hit and hands each downloadable one to
// the pipeline's transfer goroutines, each as soon as one is free, to be
// downloaded and scanned; it returns once the last fetch has. Each fetch
// writes its verdict into its own record and its cache trail into its own
// slot of t.trails, and reads only other records' source fields, which no
// fetch writes. So records, attempt numbers and attempt-span ownership do
// not depend on which fetch finished first.
func (r *runner[H]) fetchAll(t *pipeTask, now time.Time, term workload.Term, hits []H) []dataset.ResponseRecord {
	recs := make([]dataset.ResponseRecord, len(hits))
	for k, h := range hits {
		rec := r.a.response(h)
		rec.Time = now
		rec.Network = r.info.network
		rec.Query = term.Text
		rec.QueryCategory = string(term.Category)
		rec.Downloadable = archive.IsDownloadable(rec.Filename)
		recs[k] = rec
	}
	t.trails = make([][]*fetchEntry, len(recs))
	var wg sync.WaitGroup
	for k := range recs {
		if !recs[k].Downloadable {
			continue
		}
		t.downloads++
		wg.Add(1)
		r.pl.transfers <- func() {
			defer wg.Done()
			var res fetchResult
			res, t.trails[k] = r.fetch(hits, recs, k, &t.scanNS)
			applyResult(&recs[k], res)
		}
	}
	wg.Wait()
	return recs
}

// fetch fetches hits[k] and returns its labelled verdict plus the trail of
// cache entries it touched (advertised source first, then alternates).
// Under an active fault plan a retryably-failed fetch falls back to
// alternate sources: other hits of the same query with the same altKey
// and another endpoint, tried in sorted-hit order so the choice is
// deterministic. recs holds the query's records, index-aligned with hits.
func (r *runner[H]) fetch(hits []H, recs []dataset.ResponseRecord, k int, scanNS *atomic.Int64) (fetchResult, []*fetchEntry) {
	rec := &recs[k]
	e := r.fetchOnce(hits[k], rec, scanNS)
	trail := []*fetchEntry{e}
	want := r.a.altKey(hits[k])
	if r.fx == nil || e.res.err == nil || want == "" || !r.a.retryable(e.res.err) {
		return e.res, trail
	}
	failed := source(rec)
	for j, h := range hits {
		alt := &recs[j]
		if r.a.altKey(h) != want || source(alt) == failed {
			continue
		}
		ae := r.fetchOnce(h, alt, scanNS)
		trail = append(trail, ae)
		if ae.res.err == nil {
			res := ae.res
			res.alt = source(alt)
			return res, trail
		}
	}
	return e.res, trail
}

// fetchOnce fetches one hit through the deduplicating cache and returns
// its entry. The cache gives singleflight semantics per cacheKey. Under a
// fault plan a direct fetch first asks the per-host circuit breaker; fault
// decisions are PRF-keyed by (plan seed, cache key, attempt), so the
// cached result is the same no matter which fetch gets there first. Every
// path leaves a per-attempt log in the entry, fate-classified into stable
// tokens for span emission.
func (r *runner[H]) fetchOnce(h H, rec *dataset.ResponseRecord, scanNS *atomic.Int64) *fetchEntry {
	key, addr := r.a.cacheKey(h), source(rec)
	return r.cache.do(key, addr, func() fetchResult {
		if r.fx != nil && !rec.PushFlagged && !r.fx.br.allowed(rec.SourceIP) {
			return fetchResult{err: errCircuitOpen, attempts: []p2p.Attempt{{Fate: fateCircuitOpen}}}
		}
		// A clean run downloads once over the universe; under a fault plan
		// a direct transfer dials through the injector for key and retries
		// under the plan's policy.
		tr, policy := p2p.Transport(r.info.mem), p2p.RetryPolicy{Attempts: 1}
		if r.fx != nil {
			tr, policy = r.fx.inj.Transport(key), r.fx.policy
		}
		body, attempts, err := r.a.fetch(h, addr, tr, policy)
		res := r.s.labelFetch(body, err, scanNS)
		// The record keeps only the body's digest, size and verdict, so
		// the scanned body goes back to the transfer pool.
		bufpool.PutSlab(body)
		res.attempts = attempts
		return res
	})
}

// commit appends query i's records and updates the running totals. It
// runs on the committer goroutine in issue order.
func (r *runner[H]) commit(i int, recs []dataset.ResponseRecord, floodErr error) {
	if floodErr != nil {
		r.errs.set(floodErr)
		return
	}
	r.tr.QueriesSent[r.info.network]++
	r.met.queries.Inc()
	r.met.responses.Add(int64(len(recs)))
	for k := range recs {
		rec := &recs[k]
		if rec.Downloadable {
			if rec.DownloadError != "" {
				r.met.downloadsErr.Inc()
				r.met.fetchFailed.Inc()
			} else {
				r.met.downloadsOK.Inc()
				if rec.AltSource != "" {
					r.met.altOK.Inc()
				}
			}
			if r.fx != nil && !rec.PushFlagged {
				// The advertised source failed whenever the fetch errored
				// or had to fall back to an alternate; recording outcomes
				// in commit order keeps breaker state schedule-independent.
				r.fx.br.record(rec.SourceIP, rec.DownloadError == "" && rec.AltSource == "")
			}
			if rec.Malware != "" {
				r.malware++
				r.met.malware.Inc()
			}
		}
		r.tr.Add(*rec)
	}
	if (i+1)%500 == 0 {
		r.s.progress("%s: %d/%d queries, %d records", r.info.name, i+1, r.s.totalQueries(), len(r.tr.Records))
	}
}

// source is a record's advertised transfer endpoint.
func source(rec *dataset.ResponseRecord) string {
	return fmt.Sprintf("%s:%d", rec.SourceIP, rec.SourcePort)
}
