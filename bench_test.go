// Package p2pmalware's root benchmarks time the whole two-network study
// at two fetch-pool widths. The numbers the evaluation reports come from
// the goldens that cmd/p2panalyze's tests pin (see EXPERIMENTS.md).
package p2pmalware

import (
	"testing"

	"p2pmalware/internal/core"
	"p2pmalware/internal/netsim"
)

const benchSeed = 2006

// runStudyPair runs the benchmark-scale two-network study (2 days; 60
// LimeWire and 100 OpenFT queries a day, since OpenFT needs more queries
// for stable malicious counts) with an explicit transfer-pool width and
// returns the total records produced.
func runStudyPair(b *testing.B, workers int) int {
	b.Helper()
	n := 0
	for _, cfg := range []core.StudyConfig{
		{Seed: benchSeed, Days: 2, QueriesPerDay: 60,
			Workers:  workers,
			LimeWire: &netsim.LimeWireConfig{Seed: benchSeed}},
		{Seed: benchSeed, Days: 2, QueriesPerDay: 100,
			Workers: workers,
			OpenFT:  &netsim.OpenFTConfig{Seed: benchSeed}},
	} {
		st, err := core.NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := st.Run()
		if err != nil {
			b.Fatal(err)
		}
		n += len(tr.Records)
	}
	return n
}

// BenchmarkStudyPipeline times the end-to-end two-network study on the
// pipelined engine with 8 transfers in flight per network. ns/op is the
// headline end-to-end wall time; study-sec restates it for the
// benchmark-JSON artifact.
func BenchmarkStudyPipeline(b *testing.B) {
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records = runStudyPair(b, 8)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "study-sec")
	b.ReportMetric(float64(records), "records")
}

// BenchmarkStudySequential runs the same study with one transfer in
// flight per network. Stage overlap (issue/collect/fetch/commit) still
// applies; the StudyPipeline/StudySequential ratio isolates what
// transfer-pool width buys on the host, independent of the scanner
// rewrite and the stage pipelining both configurations share.
func BenchmarkStudySequential(b *testing.B) {
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records = runStudyPair(b, 1)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "study-sec")
	b.ReportMetric(float64(records), "records")
}
