package core

import (
	"errors"
	"sync"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/scanner"
	"p2pmalware/internal/simclock"
)

// The pipelined study engine splits each network's per-query work into
// four stages:
//
//  1. Issue (virtual-clock goroutine): draw the query term — the
//     generator stream must advance in issue order — and submit a task.
//     The callback returns without waiting, so the clock immediately
//     fires the next query.
//  2. Collect (single collector goroutine): open the query's flood on
//     the universe's flood ledger, send it, wait until no message of
//     the flood is outstanding — every response has then arrived — and
//     sort the hits into stable identity order. Collection is strictly
//     serialized in issue order:
//     simulated responders consume per-host random streams as queries
//     arrive (an echo host draws its decoy filename per query), so two
//     floods in flight at once would permute those draws and change
//     response *content*, not just order.
//  3. Fetch (bounded worker pool): download each downloadable hit
//     through the deduplicating fetch cache and scan it. Query N+1's
//     flood overlaps query N's downloads and scans —
//     downloads only read per-file static content, so they cannot
//     perturb later queries' responses.
//  4. Commit (single committer goroutine): in submission order, append
//     the query's records and emit its spans, stamped with the query's
//     virtual timestamp — so records and spans are byte-identical to the
//     sequential engine's regardless of worker count.
//
// Day-boundary churn and periodic progress callbacks call barrier() first,
// which drains the pipeline: they observe (and are ordered in the span
// stream after) every earlier query, exactly as in the sequential engine.

// pipeTask is one query's deferred work.
type pipeTask struct {
	// collect executes stage 2 on the collector goroutine.
	collect func()
	// run executes stage 3 in a worker.
	run func()
	// commit executes stage 4 on the committer goroutine.
	commit func()
	// ready closes when run has finished.
	ready chan struct{}

	// Span identity: the query's sequence number and virtual timestamp,
	// plus the recorder stage spans go to.
	seq   int64
	at    time.Time
	spans *obs.SpanRecorder

	// Wall-clock stage stamps. Each is written by exactly one pipeline
	// goroutine and read by the committer; the channel handoffs between
	// stages order the accesses. Together they partition the query's
	// end-to-end wall time exactly: every stage span is cut from this one
	// set of stamps, so the children tile the root with no gap or overlap.
	wSubmit       time.Time // submit()        (clock goroutine)
	wCollectStart time.Time // collector picks the task up
	wCollectEnd   time.Time // collect() returned
	wRunStart     time.Time // a worker picks the task up
	wRunEnd       time.Time // run() returned
	wCommitStart  time.Time // committer reaches the task

	// downloads, scanNS and trails are filled by run(): how many
	// downloadable records the query produced (deterministic — it gates
	// the scan span), the accumulated wall time this query's worker spent
	// inside the scanner (wall-only data), and per downloadable record the
	// fetch-cache entries it touched, for attempt spans.
	downloads int
	scanNS    int64
	trails    [][]*fetchEntry
}

// pipeline is the bounded worker pool plus in-order committer shared by
// every network runner.
type pipeline struct {
	collect chan *pipeTask
	work    chan *pipeTask
	commitq chan *pipeTask // tasks in submission (= commit) order
	met     *netMetrics
	// pending counts submitted tasks not yet committed. Add and Wait both
	// run on the virtual-clock goroutine, so no Add can race a Wait that
	// is about to return: WaitGroup's reuse rule holds.
	pending sync.WaitGroup

	workers  sync.WaitGroup
	done     chan struct{}
	stopOnce sync.Once
}

// newPipeline starts the collector, workers, and the committer. workers
// must be >= 1.
func newPipeline(workers int, met *netMetrics) *pipeline {
	p := &pipeline{
		collect: make(chan *pipeTask, 2*workers),
		work:    make(chan *pipeTask, 2*workers),
		commitq: make(chan *pipeTask, 2*workers),
		met:     met,
		done:    make(chan struct{}),
	}
	go func() {
		defer close(p.work)
		for t := range p.collect {
			met.queueCollect.Dec()
			t.wCollectStart = wallClock.Now()
			met.stageCollectWait.ObserveDuration(t.wCollectStart.Sub(t.wSubmit))
			t.collect()
			t.wCollectEnd = wallClock.Now()
			met.queueWork.Inc()
			p.work <- t
		}
	}()
	for w := 0; w < workers; w++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			for t := range p.work {
				met.queueWork.Dec()
				t.wRunStart = wallClock.Now()
				met.stageFetchWait.ObserveDuration(t.wRunStart.Sub(t.wCollectEnd))
				met.workersBusy.Inc()
				met.workerOcc.Observe(met.workersBusy.Value())
				t.run()
				t.wRunEnd = wallClock.Now()
				met.workersBusy.Dec()
				close(t.ready)
			}
		}()
	}
	go func() {
		defer close(p.done)
		for t := range p.commitq {
			waitStart := wallClock.Now()
			<-t.ready
			met.stageCommitWait.ObserveDuration(simclock.Since(wallClock, waitStart))
			met.queueCommit.Dec()
			t.wCommitStart = wallClock.Now()
			met.stageCommitHold.ObserveDuration(t.wCommitStart.Sub(t.wRunEnd))
			t.commit()
			commitEnd := wallClock.Now()
			emitQuerySpans(t, commitEnd)
			emitAttemptSpans(t.spans, t.seq, t.at, t.trails)
			met.inflight.Add(-1)
			p.pending.Done()
		}
	}()
	return p
}

// emitQuerySpans turns one committed task's wall stamps into its span
// tree: a root query span plus children that partition it — collect
// queue wait, collect (the flood, to completion), fetch queue wait,
// fetch service, commit hold, commit — and a scan child under fetch when
// the query downloaded anything. Runs on the committer goroutine in
// commit order, which is what makes per-scope span emission order (and
// therefore the serialized stream) deterministic at any worker count.
func emitQuerySpans(t *pipeTask, commitEnd time.Time) {
	r := t.spans
	scope := r.Scope()
	rootID := obs.DeriveSpanID(scope, t.seq, obs.StageQuery, 0)
	fetchID := obs.DeriveSpanID(scope, t.seq, obs.StageFetch, 0)
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageQuery, ID: rootID}, t.wSubmit, commitEnd)
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageCollectWait, Parent: rootID}, t.wSubmit, t.wCollectStart)
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageCollect, Parent: rootID}, t.wCollectStart, t.wCollectEnd)
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageFetchWait, Parent: rootID}, t.wCollectEnd, t.wRunStart)
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageFetch, ID: fetchID, Parent: rootID}, t.wRunStart, t.wRunEnd)
	if t.downloads > 0 {
		r.AddWallUS(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageScan, Parent: fetchID}, t.scanNS/1000)
	}
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageCommitHold, Parent: rootID}, t.wRunEnd, t.wCommitStart)
	r.AddWall(obs.Span{Time: t.at, Seq: t.seq, Stage: obs.StageCommit, Parent: rootID}, t.wCommitStart, commitEnd)
}

// submit enqueues one task. Must be called from the virtual-clock
// goroutine only; submission order is commit order. Blocks when the
// pipeline is at capacity, which throttles query issuance.
//
// lint:hotpath
func (p *pipeline) submit(t *pipeTask) {
	t.ready = make(chan struct{})
	t.wSubmit = wallClock.Now()
	p.pending.Add(1)
	p.met.inflight.Inc()
	p.met.queueCommit.Inc()
	p.met.queueCollect.Inc()
	p.commitq <- t
	p.collect <- t
}

// barrier blocks until every submitted task has committed. Called from the
// virtual-clock goroutine before churn mutates the network and before
// progress lines read the running totals, preserving the sequential
// engine's ordering at those points.
//
// lint:hotpath
func (p *pipeline) barrier() {
	p.pending.Wait()
}

// stop drains the pipeline and joins its goroutines. Idempotent; safe
// after a partial run.
func (p *pipeline) stop() {
	p.stopOnce.Do(func() {
		close(p.collect) // collector drains, then closes work
		close(p.commitq)
		p.workers.Wait()
		<-p.done
	})
}

// floodSink gathers the responses to the one query a network's collector
// has in flight. Responses arrive keyed by their flood; anything for
// another flood — a late arrival from a flood that failed — is dropped.
type floodSink[R any] struct {
	mu   sync.Mutex
	id   p2p.FloodID // guarded by mu
	open bool        // guarded by mu
	got  []R         // guarded by mu
}

// collect runs one query's flood to completion and returns its
// responses: it opens flood id on led holding the issuer's count, sends,
// releases the hold, and waits until no message of the flood is
// outstanding — every response has then been added.
func (s *floodSink[R]) collect(led *p2p.FloodLedger, id p2p.FloodID, send func() error) ([]R, error) {
	s.mu.Lock()
	s.id, s.open, s.got = id, true, nil
	s.mu.Unlock()
	f := led.Open(id)
	err := send()
	f.Release()
	if err == nil {
		err = f.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.open = false
	return s.got, err
}

// add accepts responses to flood id.
func (s *floodSink[R]) add(id p2p.FloodID, rs ...R) {
	s.mu.Lock()
	if s.open && s.id == id {
		s.got = append(s.got, rs...)
	}
	s.mu.Unlock()
}

// errCircuitOpen is the fast-fail verdict for fetches addressed to hosts
// whose circuit breaker is open. Its message lands in download_error
// record fields, so it must stay stable across runs.
var errCircuitOpen = errors.New("circuit open: host suppressed after repeated transfer failures")

// netFaults bundles one network's fault-mode state: the deterministic
// transport injector, the resolved retry policy, and the per-host
// circuit breaker. A nil *netFaults means the study runs clean — every
// fault-path branch is skipped and the engine fetches, records, and
// traces exactly as it did before fault injection existed.
type netFaults struct {
	inj    *faultsim.Injector
	policy p2p.RetryPolicy
	br     *breaker
}

// newNetFaults wires a network's fault state, or returns nil when the
// study's plan is absent or inactive.
func (s *Study) newNetFaults(network string, inner p2p.Transport) *netFaults {
	inj := faultsim.NewInjector(s.cfg.Faults, s.cfg.Seed, network, inner)
	if inj == nil {
		return nil
	}
	return &netFaults{inj: inj, policy: s.fetchRetryPolicy(), br: newBreaker()}
}

// breaker is a per-host circuit breaker with virtual-day epochs.
// Outcomes are recorded by the committer goroutine in commit order, and
// the open set only changes in advance(), which the clock goroutine
// calls behind a pipeline barrier (no fetches in flight) at day
// boundaries. Between epochs the open set is frozen, so fetch workers
// observe identical breaker decisions regardless of scheduling — the
// property the byte-identical-trace guarantee rests on.
type breaker struct {
	threshold int // consecutive failures that open a host
	cooldown  int // epochs an opened host stays suppressed

	mu    sync.Mutex
	fails map[string]int // consecutive direct-fetch failures; guarded by mu
	open  map[string]int // host -> epochs left open; guarded by mu
}

func newBreaker() *breaker {
	return &breaker{
		threshold: 3,
		cooldown:  1,
		fails:     make(map[string]int),
		open:      make(map[string]int),
	}
}

// allowed reports whether direct fetches to host may proceed this epoch.
//
// lint:hotpath
func (b *breaker) allowed(host string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open[host] == 0
}

// record tallies one committed direct-fetch outcome for host. Fast-fail
// outcomes against an already-open host do not re-count.
//
// lint:hotpath
func (b *breaker) record(host string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open[host] > 0 {
		return
	}
	if ok {
		delete(b.fails, host)
		return
	}
	b.fails[host]++
}

// advance moves the breaker one epoch: open hosts tick toward closing,
// and hosts that crossed the failure threshold open for cooldown epochs.
// Returns how many hosts opened and closed, for tracing.
func (b *breaker) advance() (opened, closed int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for host, left := range b.open {
		if left <= 1 {
			delete(b.open, host)
			closed++
		} else {
			b.open[host] = left - 1
		}
	}
	for host, n := range b.fails {
		if n >= b.threshold {
			b.open[host] = b.cooldown
			delete(b.fails, host)
			opened++
		}
	}
	return opened, closed
}

// fetchResult is a finished download+scan verdict: everything a record
// needs, with the body itself already dropped.
type fetchResult struct {
	err    error
	hash   string
	size   int64
	family string
	// alt is the endpoint an alternate-source retry fetched from, when
	// the advertised source failed but another responder had the content.
	alt string
	// attempts is the per-try log of the transfer that produced this
	// result: fate token, deterministic backoff, measured wall duration.
	// It lives in the cache entry, so every query sharing the entry sees
	// the one real attempt history; span emission claims it exactly once,
	// in commit order.
	attempts []p2p.Attempt
}

// fateCircuitOpen is the stable attempt-fate token for breaker fast-fails.
const fateCircuitOpen = "circuit_open"

// labelFetch scans a fetched body once — the MD5 is shared between the
// scan memo key and the record's content identity — and condenses it to a
// fetchResult. scanNS, when non-nil, accumulates the wall time spent in
// the scanner so the executing query's scan span can report it.
func (s *Study) labelFetch(body []byte, err error, scanNS *int64) fetchResult {
	if err != nil {
		return fetchResult{err: err}
	}
	scanStart := wallClock.Now()
	sum, ds := s.engine.ScanSum(body)
	if scanNS != nil {
		*scanNS += int64(simclock.Since(wallClock, scanStart))
	}
	res := fetchResult{hash: scanner.HexSum(sum), size: int64(len(body))}
	if len(ds) > 0 {
		res.family = ds[0].Family
	}
	return res
}

// applyResult fills the download-related record fields the way the
// sequential engine's labelDownload did.
func applyResult(rec *dataset.ResponseRecord, res fetchResult) {
	if res.err != nil {
		rec.DownloadError = res.err.Error()
		return
	}
	rec.Downloaded = true
	rec.AltSource = res.alt
	rec.BodyHash = res.hash
	rec.BodySize = res.size
	rec.Malware = res.family
}

// fetchCache deduplicates downloads per cache key with singleflight
// semantics: concurrent requests for one key share a single fetch+scan,
// which both saves work and keeps push-callback registrations (keyed by
// servent and index) from colliding across workers.
type fetchCache struct {
	mu      sync.Mutex
	entries map[string]*fetchEntry // guarded by mu
}

type fetchEntry struct {
	ready chan struct{}
	res   fetchResult
	// src is the endpoint the entry fetched from, for attempt-span detail.
	src string
	// claimed marks the entry's attempt log as already emitted. Touched
	// only by the committer goroutine (span emission runs in commit
	// order), so the first query to commit a record using this entry —
	// a deterministic choice — owns its attempt spans.
	claimed bool
}

func newFetchCache() *fetchCache {
	return &fetchCache{entries: make(map[string]*fetchEntry)}
}

// do returns the cache entry for key, fetching and labelling it via fetch
// on first use; src annotates the entry with its source endpoint.
// Duplicate concurrent callers block until the first finishes, then share
// the entry (and its attempt log).
func (c *fetchCache) do(key, src string, fetch func() fetchResult) *fetchEntry {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e
	}
	e := &fetchEntry{ready: make(chan struct{}), src: src}
	c.entries[key] = e
	c.mu.Unlock()
	e.res = fetch()
	close(e.ready)
	return e
}

// emitAttemptSpans emits one span per transfer attempt a query's records
// performed, as children of the query's fetch span. trails holds, per
// committed record, the cache entries its fetch touched (advertised
// source first, then alternates in try order). An entry shared with an
// earlier-committed query was already claimed there and is skipped, so
// every real attempt is reported exactly once and the claiming query is
// deterministic (commit order). Attempt numbers count monotonically
// across the query's whole trail; Retry restarts per entry, so an
// alternate-source hop is visible as Retry resetting to 1 while Attempt
// keeps climbing. Must run on the committer goroutine.
func emitAttemptSpans(r *obs.SpanRecorder, seq int64, at time.Time, trails [][]*fetchEntry) {
	fetchID := obs.DeriveSpanID(r.Scope(), seq, obs.StageFetch, 0)
	var k int32
	for _, trail := range trails {
		for _, e := range trail {
			if e == nil || e.claimed {
				continue
			}
			e.claimed = true
			for ri, a := range e.res.attempts {
				k++
				r.AddWallUS(obs.Span{
					Time:      at,
					Seq:       seq,
					Stage:     obs.StageAttempt,
					Attempt:   k,
					Retry:     int32(ri + 1),
					Parent:    fetchID,
					BackoffUS: a.Backoff.Microseconds(),
					Fate:      a.Fate,
					Detail:    e.src,
				}, a.Wall.Microseconds())
			}
		}
	}
}

// errBox carries the first fatal error across the pipeline's goroutines:
// workers and the committer store, clock callbacks poll.
type errBox struct {
	mu    sync.Mutex
	first error // first error stored; guarded by mu
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	if b.first == nil {
		b.first = err
	}
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first
}

// keyedLocks hands out one mutex per key, for serializing operations that
// share hidden per-key state (push-callback registrations).
type keyedLocks struct {
	mu    sync.Mutex
	locks map[string]*sync.Mutex // guarded by mu
}

func newKeyedLocks() *keyedLocks {
	return &keyedLocks{locks: make(map[string]*sync.Mutex)}
}

// lock acquires the mutex for key and returns its unlock function.
func (k *keyedLocks) lock(key string) func() {
	k.mu.Lock()
	m := k.locks[key]
	if m == nil {
		m = new(sync.Mutex)
		k.locks[key] = m
	}
	k.mu.Unlock()
	m.Lock()
	return m.Unlock
}
