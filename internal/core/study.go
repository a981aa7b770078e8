// Package core implements the paper's measurement methodology as a
// reusable library: instrumented clients join each network, issue a
// popularity-skewed query stream over a (virtual) multi-week trace period,
// record every query response, download the responses that are archives or
// executables, scan the downloads, and assemble the labelled trace that
// every table and figure in the evaluation is computed from.
package core

import (
	"fmt"
	"sync"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/scanner"
)

// StudyConfig configures a full measurement run.
type StudyConfig struct {
	// Seed drives every random choice (population, workload, jitter).
	Seed uint64
	// Days is the virtual trace length (default 30, matching the paper's
	// "over a month of data").
	Days int
	// QueriesPerDay is the query rate per network (default 96).
	QueriesPerDay int
	// ChurnPerDay is the fraction of honest LimeWire leaves replaced at
	// each virtual day boundary (0 = static population). Malware hosts
	// persist, matching the paper's stable malicious sources.
	ChurnPerDay float64
	// ProgressEvery, when positive, emits a progress line per network at
	// that virtual interval: virtual day, queries, responses, and malware
	// hits so far.
	ProgressEvery time.Duration
	// SpanWallLatency annotates pipeline spans with measured wall
	// durations (wall_us), turning the span stream into critical-path
	// profiling data for `p2panalyze spans`. Off by default: wall time is
	// nondeterministic, and the deterministic span stream is what the
	// golden gate diffs. Span identity, hierarchy, fates, and backoffs are
	// unaffected either way.
	SpanWallLatency bool
	// Workers bounds each network's transfers in flight, and the bodies
	// they hold (default 16: a transfer mostly waits on its peer, so the
	// width counts waits that overlap, not cores). A clean run has
	// Workers download/scan workers, each fetching its query's hits one
	// after another; under a fault plan the workers hand each query's
	// hits to Workers transfer goroutines, which fetch them side by side.
	// Records and spans are
	// byte-identical for any value: the committer re-serializes results
	// into issue order before any record is appended or span emitted.
	Workers int
	// Faults, when non-nil and active, injects deterministic transport
	// faults (latency, refusals, resets, truncation, corruption,
	// slow-loris) into both instrumented clients' direct transfers and
	// enables the retry / alternate-source / circuit-breaker machinery.
	// nil, or an all-zero plan, reproduces the clean engine byte for
	// byte. The plan's ChurnPerDay also schedules day-boundary churn on
	// both networks (merged with ChurnPerDay above by max for LimeWire).
	Faults *faultsim.FaultPlan
	// FetchRetry tunes the per-download retry loop used when Faults is
	// active. Zero fields take p2p.DefaultRetryPolicy values; the jitter
	// seed defaults to Seed.
	FetchRetry p2p.RetryPolicy
	// LimeWire configures the Gnutella universe; nil skips the network.
	LimeWire *netsim.LimeWireConfig
	// OpenFT configures the OpenFT universe; nil skips the network.
	OpenFT *netsim.OpenFTConfig
}

func (c *StudyConfig) applyDefaults() {
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.QueriesPerDay <= 0 {
		c.QueriesPerDay = 96
	}
	if c.Workers <= 0 {
		c.Workers = fetchWidth
	}
}

// Study is one configured measurement run.
type Study struct {
	cfg    StudyConfig
	engine *scanner.Engine
	// Progress, when set, receives coarse progress lines.
	Progress func(format string, args ...any)

	mu       sync.Mutex
	spanRecs []*obs.SpanRecorder // guarded by mu
}

// NewStudy validates the configuration and prepares the scanner ground
// truth from the catalogs in play.
func NewStudy(cfg StudyConfig) (*Study, error) {
	cfg.applyDefaults()
	if cfg.LimeWire == nil && cfg.OpenFT == nil {
		return nil, fmt.Errorf("core: study needs at least one network")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
	}
	var catalogs []*malware.Catalog
	if cfg.LimeWire != nil {
		if cfg.LimeWire.Catalog == nil {
			cfg.LimeWire.Catalog = malware.LimeWireCatalog()
		}
		catalogs = append(catalogs, cfg.LimeWire.Catalog)
	}
	if cfg.OpenFT != nil {
		if cfg.OpenFT.Catalog == nil {
			cfg.OpenFT.Catalog = malware.OpenFTCatalog()
		}
		catalogs = append(catalogs, cfg.OpenFT.Catalog)
	}
	engine, err := scanner.FromCatalogs(catalogs...)
	if err != nil {
		return nil, err
	}
	return &Study{cfg: cfg, engine: engine}, nil
}

// Run executes the configured study and returns the labelled trace. The
// two networks are measured concurrently — they live in separate
// simulated universes, exactly as the study's two instrumented clients
// ran side by side.
func (s *Study) Run() (*dataset.Trace, error) {
	type part struct {
		name string
		run  func(tr *dataset.Trace) error
	}
	var parts []part
	if s.cfg.LimeWire != nil {
		parts = append(parts, part{"limewire", s.runLimeWire})
	}
	if s.cfg.OpenFT != nil {
		parts = append(parts, part{"openft", s.runOpenFT})
	}
	traces := make([]*dataset.Trace, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, pt := range parts {
		wg.Add(1)
		go func(i int, pt part) {
			defer wg.Done()
			tr := dataset.NewTrace()
			if err := pt.run(tr); err != nil {
				errs[i] = fmt.Errorf("core: %s study: %w", pt.name, err)
				return
			}
			traces[i] = tr
		}(i, pt)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	all := dataset.NewTrace()
	for _, tr := range traces {
		all.Merge(tr)
	}
	return all, nil
}

// newSpanRecorder builds a network's span recorder and registers it for
// later merging. Span stamps come from the caller (the committer reuses
// each query's scheduled instant, day-boundary spans the boundary's), and
// wall measurement reads the real clock (the recorder's default) and is
// kept only when SpanWallLatency is set.
func (s *Study) newSpanRecorder(scope string) *obs.SpanRecorder {
	r := obs.NewSpanRecorder(scope, nil, s.cfg.SpanWallLatency)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spanRecs = append(s.spanRecs, r)
	return r
}

// Spans returns the merged span stream from every network measured so
// far, ordered deterministically by (time, scope, emission order). With
// SpanWallLatency off, two same-seed runs — at any worker count — produce
// byte-identical streams under obs.WriteSpansJSONL.
func (s *Study) Spans() []obs.Span {
	s.mu.Lock()
	recs := append([]*obs.SpanRecorder(nil), s.spanRecs...)
	s.mu.Unlock()
	streams := make([][]obs.Span, len(recs))
	for i, r := range recs {
		streams[i] = r.Spans()
	}
	return obs.MergeSpans(streams...)
}

func (s *Study) progress(format string, args ...any) {
	if s.Progress != nil {
		s.Progress(format, args...)
	}
}

// totalQueries is the query budget per network.
func (s *Study) totalQueries() int {
	return s.cfg.Days * s.cfg.QueriesPerDay
}

// fetchRetryPolicy resolves the effective retry policy for fault-mode
// fetches: explicit fields win, the rest fall back to
// p2p.DefaultRetryPolicy, and the jitter PRF is keyed by the study seed
// unless the caller picked its own.
func (s *Study) fetchRetryPolicy() p2p.RetryPolicy {
	p := s.cfg.FetchRetry.WithDefaults()
	if p.Seed == 0 {
		p.Seed = s.cfg.Seed
	}
	return p
}
