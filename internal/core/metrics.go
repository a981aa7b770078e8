package core

import "p2pmalware/internal/obs"

// netMetrics holds one instrumented client's study-level metric handles.
// Where a query's time went is in its spans, not here.
type netMetrics struct {
	queries      *obs.Counter
	responses    *obs.Counter
	downloadsOK  *obs.Counter
	downloadsErr *obs.Counter
	malware      *obs.Counter

	// Fault-mode robustness: terminal fetch failures (after retries and
	// alternates), recoveries via an alternate source, and hosts opened
	// by the circuit breaker.
	fetchFailed *obs.Counter
	altOK       *obs.Counter
	circuitOpen *obs.Counter
}

func newNetMetrics(network string) *netMetrics {
	return &netMetrics{
		queries:      obs.C("p2p_study_queries_total", "network", network),
		responses:    obs.C("p2p_study_responses_total", "network", network),
		downloadsOK:  obs.C("p2p_study_downloads_total", "network", network, "result", "ok"),
		downloadsErr: obs.C("p2p_study_downloads_total", "network", network, "result", "error"),
		malware:      obs.C("p2p_study_malware_total", "network", network),
		fetchFailed:  obs.C("p2p_study_fetch_failed_total", "network", network),
		altOK:        obs.C("p2p_study_fetch_alt_total", "network", network),
		circuitOpen:  obs.C("p2p_study_circuit_open_total", "network", network),
	}
}
