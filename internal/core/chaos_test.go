package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

// chaosRetry bounds faulted attempts tightly so injected stalls cannot
// dominate a chaos run's wall time.
func chaosRetry() p2p.RetryPolicy {
	return p2p.RetryPolicy{
		Attempts:       3,
		AttemptTimeout: 250 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
	}
}

// TestStudySurvivesFaultMatrix sweeps hostile-network regimes against
// worker counts: the engine must finish without error, never lose a
// query, and resolve every downloadable record as either downloaded or a
// counted failure — the graceful-degradation contract. Run with -race
// (the CI chaos job does) this also hammers the injector, retry,
// alternate-source, breaker, and churn paths for data races.
func TestStudySurvivesFaultMatrix(t *testing.T) {
	for _, profile := range []string{"lossy", "truncating", "churning", "slowloris"} {
		for _, workers := range []int{1, 8} {
			profile, workers := profile, workers
			t.Run(fmt.Sprintf("%s_w%d", profile, workers), func(t *testing.T) {
				t.Parallel()
				plan := faultsim.Profiles[profile]
				st, err := NewStudy(StudyConfig{
					Seed: 900, Days: 2, QueriesPerDay: 4,
					Workers:    workers,
					Faults:     &plan,
					FetchRetry: chaosRetry(),
					LimeWire:   &netsim.LimeWireConfig{Seed: 900, HonestLeaves: 12, EchoHosts: 5},
					OpenFT:     &netsim.OpenFTConfig{Seed: 900, HonestUsers: 12},
				})
				if err != nil {
					t.Fatal(err)
				}
				tr, err := st.Run()
				if err != nil {
					t.Fatalf("study failed under %s faults: %v", profile, err)
				}
				const wantQueries = 2 * 4
				for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
					if got := tr.QueriesSent[nw]; got != wantQueries {
						t.Errorf("%s: %d queries sent, want %d", nw, got, wantQueries)
					}
				}
				querySpans := 0
				for _, sp := range st.Spans() {
					if sp.Stage == obs.StageQuery {
						querySpans++
					}
				}
				if querySpans != 2*wantQueries {
					t.Errorf("query spans = %d, want %d (a lost query means a lost trace slot)", querySpans, 2*wantQueries)
				}
				for i := range tr.Records {
					r := &tr.Records[i]
					if r.Downloadable && !r.Downloaded && r.DownloadError == "" {
						t.Errorf("record %d (%s): downloadable but neither downloaded nor counted as failed", i, r.Filename)
					}
					if r.AltSource != "" && !r.Downloaded {
						t.Errorf("record %d (%s): alt_source set on an undownloaded record", i, r.Filename)
					}
				}
			})
		}
	}
}

// faultedWorkerStudy mirrors workerStudy under the canonical fault
// profile: two virtual days so churn and breaker epochs fire mid-study.
func faultedWorkerStudy(t *testing.T, seed uint64, workers int) (spans, records []byte) {
	t.Helper()
	return studyStreams(t, StudyConfig{
		Seed: seed, Days: 2, QueriesPerDay: 3,
		Workers:    workers,
		Faults:     canonicalPlan(),
		FetchRetry: goldenRetry(),
		LimeWire:   &netsim.LimeWireConfig{Seed: seed, HonestLeaves: 12, EchoHosts: 5},
		OpenFT:     &netsim.OpenFTConfig{Seed: seed, HonestUsers: 12},
	})
}

// TestFaultedWorkerCountsEmitIdenticalTraces is the acceptance pin: with
// the canonical fault profile enabled, same-seed runs must produce
// byte-identical span and record streams for any worker count — fault
// decisions are PRF-keyed, retries are schedule-independent, and breaker
// state only moves behind barriers, so parallelism must not leak into
// the trace.
func TestFaultedWorkerCountsEmitIdenticalTraces(t *testing.T) {
	sp1, rec1 := faultedWorkerStudy(t, 71, 1)
	for _, workers := range []int{4, 8} {
		sp, rec := faultedWorkerStudy(t, 71, workers)
		checkSameStreams(t, fmt.Sprintf("faulted, workers 1 vs %d", workers), sp1, rec1, sp, rec)
	}
}

// headlineStudy runs both networks at a sample size large enough for
// stable prevalence shares.
func headlineStudy(t *testing.T, faults *faultsim.FaultPlan) *dataset.Trace {
	t.Helper()
	st, err := NewStudy(StudyConfig{
		Seed: 23, Days: 2, QueriesPerDay: 80,
		Faults:     faults,
		FetchRetry: chaosRetry(),
		LimeWire:   &netsim.LimeWireConfig{Seed: 23},
		OpenFT:     &netsim.OpenFTConfig{Seed: 23},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCanonicalFaultsKeepHeadlineShares is the acceptance tolerance:
// under the canonical profile (≥5% connection failures, ≥2% truncation,
// churn on) the malicious-response shares must stay within ±2 points of
// the same-seed clean run — retries, alternates, and counted failures
// keep wire damage from skewing the measured population.
func TestCanonicalFaultsKeepHeadlineShares(t *testing.T) {
	t.Parallel()
	clean := analysis.MalwarePrevalence(headlineStudy(t, nil))
	faulted := analysis.MalwarePrevalence(headlineStudy(t, canonicalPlan()))
	for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
		c, f := clean[nw], faulted[nw]
		if c.Labelled == 0 || f.Labelled == 0 {
			t.Fatalf("%s: no labelled responses (clean %d, faulted %d)", nw, c.Labelled, f.Labelled)
		}
		if drift := math.Abs(c.Share - f.Share); drift > 0.02 {
			t.Errorf("%s: malicious share drifted %.3f under canonical faults (clean %.3f, faulted %.3f)",
				nw, drift, c.Share, f.Share)
		}
		t.Logf("%s: clean share %.3f (%d labelled), canonical share %.3f (%d labelled)",
			nw, c.Share, c.Labelled, f.Share, f.Labelled)
	}
}
