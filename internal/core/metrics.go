package core

import (
	"p2pmalware/internal/obs"
	"p2pmalware/internal/simclock"
)

// wallClock is the sanctioned wall-time source for the measurement layer
// (clockcheck bans direct time.Now calls here). It only feeds latency
// metrics and the optional wall_us span durations — never virtual-time
// record or span timestamps.
var wallClock simclock.Clock = simclock.Real{}

// netMetrics holds one instrumented client's study-level metric handles.
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

	// Pipeline introspection: how many queries sit between issue and
	// commit, and where each one spends its wall time. stageCollect is
	// the flood histogram (send until the flood ledger reports the flood
	// complete, inside the collector); stageCommitWait is the committer blocked on an
	// unfinished task, while stageCommitHold is the converse — a finished
	// task waiting for the committer to reach it.
	inflight        *obs.Gauge
	stageCollect    *obs.Histogram
	stageFetch      *obs.Histogram
	stageCommitWait *obs.Histogram

	// Pipeline health: live depth of each stage's queue, queue-wait vs
	// service splits, and how many workers are busy when a task starts.
	queueCollect     *obs.Gauge
	queueWork        *obs.Gauge
	queueCommit      *obs.Gauge
	workersBusy      *obs.Gauge
	workerOcc        *obs.Histogram
	stageCollectWait *obs.Histogram
	stageFetchWait   *obs.Histogram
	stageCommitHold  *obs.Histogram
}

// occupancyBuckets grades the worker-occupancy histogram in workers, not
// microseconds.
var occupancyBuckets = []int64{1, 2, 4, 8, 16, 32, 64}

func newNetMetrics(network string) *netMetrics {
	return &netMetrics{
		queries:         obs.C("p2p_study_queries_total", "network", network),
		responses:       obs.C("p2p_study_responses_total", "network", network),
		downloadsOK:     obs.C("p2p_study_downloads_total", "network", network, "result", "ok"),
		downloadsErr:    obs.C("p2p_study_downloads_total", "network", network, "result", "error"),
		malware:         obs.C("p2p_study_malware_total", "network", network),
		fetchFailed:     obs.C("p2p_study_fetch_failed_total", "network", network),
		altOK:           obs.C("p2p_study_fetch_alt_total", "network", network),
		circuitOpen:     obs.C("p2p_study_circuit_open_total", "network", network),
		inflight:        obs.G("p2p_study_pipeline_inflight", "network", network),
		stageCollect:    obs.H("p2p_study_stage_us", obs.LatencyBuckets, "network", network, "stage", "collect"),
		stageFetch:      obs.H("p2p_study_stage_us", obs.LatencyBuckets, "network", network, "stage", "fetch"),
		stageCommitWait: obs.H("p2p_study_stage_us", obs.LatencyBuckets, "network", network, "stage", "commit_wait"),

		queueCollect:     obs.G("p2p_study_queue_depth", "network", network, "stage", "collect"),
		queueWork:        obs.G("p2p_study_queue_depth", "network", network, "stage", "fetch"),
		queueCommit:      obs.G("p2p_study_queue_depth", "network", network, "stage", "commit"),
		workersBusy:      obs.G("p2p_study_workers_busy", "network", network),
		workerOcc:        obs.H("p2p_study_worker_occupancy", occupancyBuckets, "network", network),
		stageCollectWait: obs.H("p2p_study_stage_us", obs.LatencyBuckets, "network", network, "stage", "collect_wait"),
		stageFetchWait:   obs.H("p2p_study_stage_us", obs.LatencyBuckets, "network", network, "stage", "fetch_wait"),
		stageCommitHold:  obs.H("p2p_study_stage_us", obs.LatencyBuckets, "network", network, "stage", "commit_hold"),
	}
}
