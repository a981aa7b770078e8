// Package p2pmalware's root bench suite regenerates every table and figure
// of the evaluation (see DESIGN.md's per-experiment index) plus the
// ablation experiments. Each benchmark reports the reproduced headline
// numbers as benchmark metrics, so `go test -bench=. -benchmem` doubles as
// the reproduction harness:
//
//	T1 data summary            BenchmarkT1_DataSummary
//	T2 prevalence              BenchmarkT2_Prevalence
//	T3 top malware             BenchmarkT3_TopMalware
//	F1 concentration curve     BenchmarkF1_ConcentrationCDF
//	T4 sources                 BenchmarkT4_Sources
//	F2 host concentration      BenchmarkF2_HostConcentration
//	F3 temporal series         BenchmarkF3_Temporal
//	F4 size distribution       BenchmarkF4_SizeDistribution
//	T5 filter comparison       BenchmarkT5_FilterComparison
//	F5 filter sweep            BenchmarkF5_FilterSweep
//	T6 query categories        BenchmarkT6_QueryCategories
//
// The shared measurement trace is produced once per process; the
// benchmarks then time the analysis computations over it.
package p2pmalware

import (
	"sync"
	"testing"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/core"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/deploy"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/netsim"
)

var (
	traceOnce      sync.Once
	traceErr       error
	sharedTr       *dataset.Trace
	benchSeed      = uint64(2006)
	benchQueriesLW = 120
	benchQueriesFT = 200
)

// sharedTrace runs the scaled-down two-network study once per process.
func sharedTrace(b *testing.B) *dataset.Trace {
	b.Helper()
	traceOnce.Do(func() {
		st, err := core.NewStudy(core.StudyConfig{
			Seed: benchSeed, Days: 2, QueriesPerDay: benchQueriesLW / 2,
			LimeWire: &netsim.LimeWireConfig{Seed: benchSeed},
		})
		if err != nil {
			traceErr = err
			return
		}
		tr, err := st.Run()
		if err != nil {
			traceErr = err
			return
		}
		// OpenFT needs more queries for stable malicious counts.
		st2, err := core.NewStudy(core.StudyConfig{
			Seed: benchSeed, Days: 2, QueriesPerDay: benchQueriesFT / 2,
			OpenFT: &netsim.OpenFTConfig{Seed: benchSeed},
		})
		if err != nil {
			traceErr = err
			return
		}
		tr2, err := st2.Run()
		if err != nil {
			traceErr = err
			return
		}
		for _, r := range tr2.Records {
			tr.Add(r)
		}
		for nw, n := range tr2.QueriesSent {
			tr.QueriesSent[nw] += n
		}
		sharedTr = tr
	})
	if traceErr != nil {
		b.Fatal(traceErr)
	}
	return sharedTr
}

func BenchmarkT1_DataSummary(b *testing.B) {
	tr := sharedTrace(b)
	var s map[dataset.Network]analysis.NetworkSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.DataSummary(tr)
	}
	b.ReportMetric(float64(s[dataset.LimeWire].Responses), "lw-responses")
	b.ReportMetric(float64(s[dataset.OpenFT].Responses), "ft-responses")
	b.ReportMetric(float64(s[dataset.LimeWire].Downloadable), "lw-downloadable")
}

func BenchmarkT2_Prevalence(b *testing.B) {
	tr := sharedTrace(b)
	var p map[dataset.Network]analysis.Prevalence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = analysis.MalwarePrevalence(tr)
	}
	// Paper: LimeWire 68%, OpenFT 3%.
	b.ReportMetric(100*p[dataset.LimeWire].Share, "lw-prevalence-%")
	b.ReportMetric(100*p[dataset.OpenFT].Share, "ft-prevalence-%")
}

func BenchmarkT3_TopMalware(b *testing.B) {
	tr := sharedTrace(b)
	var lw, ft []analysis.FamilyShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lw = analysis.TopMalware(tr, dataset.LimeWire, 3)
		ft = analysis.TopMalware(tr, dataset.OpenFT, 3)
	}
	// Paper: LimeWire top-3 = 99%; OpenFT top-3 = 75%, top-1 = 67%.
	b.ReportMetric(100*lw[2].CumShare, "lw-top3-%")
	b.ReportMetric(100*ft[len(ft)-1].CumShare, "ft-top3-%")
	b.ReportMetric(100*ft[0].Share, "ft-top1-%")
}

func BenchmarkF1_ConcentrationCDF(b *testing.B) {
	tr := sharedTrace(b)
	var curve []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve = analysis.ConcentrationCurve(tr, dataset.LimeWire)
	}
	b.ReportMetric(float64(len(curve)), "lw-families")
	b.ReportMetric(100*curve[0], "lw-top1-%")
}

func BenchmarkT4_Sources(b *testing.B) {
	tr := sharedTrace(b)
	var priv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priv = analysis.PrivateShare(tr, dataset.LimeWire)
	}
	// Paper: 28% of malicious LimeWire responses from private ranges.
	b.ReportMetric(100*priv, "lw-private-%")
}

func BenchmarkF2_HostConcentration(b *testing.B) {
	tr := sharedTrace(b)
	var hosts []analysis.HostShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hosts = analysis.HostConcentration(tr, dataset.OpenFT, "W32.Ferrox.A")
	}
	// Paper: the top OpenFT virus is served by a single host.
	b.ReportMetric(float64(len(hosts)), "ft-top-virus-hosts")
}

func BenchmarkF3_Temporal(b *testing.B) {
	tr := sharedTrace(b)
	var series []analysis.DayPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = analysis.DailySeries(tr, dataset.LimeWire)
	}
	b.ReportMetric(float64(len(series)), "trace-days")
}

func BenchmarkF4_SizeDistribution(b *testing.B) {
	tr := sharedTrace(b)
	var distinct int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mal, _ := analysis.SizeDistributions(tr, dataset.LimeWire)
		_ = mal.Percentile(50)
		distinct = analysis.DistinctMaliciousSizes(tr, dataset.LimeWire)
	}
	// The filtering insight: malicious responses cluster on a handful of
	// distinct sizes.
	b.ReportMetric(float64(distinct), "lw-distinct-malware-sizes")
}

func BenchmarkT5_FilterComparison(b *testing.B) {
	tr := sharedTrace(b)
	train, eval := filter.SplitTrace(tr, 0.3)
	var sizeRes, builtinRes filter.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := filter.TrainSizeFilter(train, dataset.LimeWire, 10)
		sizeRes = filter.Evaluate(f, eval, dataset.LimeWire)
		builtinRes = filter.Evaluate(filter.NewBuiltinFilter(), eval, dataset.LimeWire)
	}
	// Paper: size filter >99% detection vs ~6% for built-in mechanisms.
	b.ReportMetric(100*sizeRes.DetectionRate, "size-detection-%")
	b.ReportMetric(100*sizeRes.FalsePositiveRate, "size-fp-%")
	b.ReportMetric(100*builtinRes.DetectionRate, "builtin-detection-%")
}

func BenchmarkF5_FilterSweep(b *testing.B) {
	tr := sharedTrace(b)
	train, eval := filter.SplitTrace(tr, 0.3)
	ks := []int{1, 2, 3, 5, 10, 20, 50}
	var pts []filter.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = filter.SweepSizeFilter(train, eval, dataset.LimeWire, ks)
	}
	b.ReportMetric(100*pts[0].DetectionRate, "k1-detection-%")
	b.ReportMetric(100*pts[len(pts)-1].DetectionRate, "k50-detection-%")
}

func BenchmarkT6_QueryCategories(b *testing.B) {
	tr := sharedTrace(b)
	var rates []analysis.CategoryRate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rates = analysis.QueryCategoryRates(tr, dataset.LimeWire)
	}
	b.ReportMetric(float64(len(rates)), "categories")
	b.ReportMetric(100*rates[0].MaliciousShare, "worst-category-%")
}

// BenchmarkExtension_DeploymentImpact runs the user-level what-if: a
// population of downloaders against the measured result lists, with no
// filter, LimeWire's built-in mechanisms, and the size-based filter
// deployed. The reported infection rates quantify the paper's claim that
// size filtering "could block a large portion of malicious files".
func BenchmarkExtension_DeploymentImpact(b *testing.B) {
	tr := sharedTrace(b)
	train, eval := filter.SplitTrace(tr, 0.3)
	size := filter.TrainSizeFilter(train, dataset.LimeWire, 10)
	filters := []filter.Filter{nil, filter.NewBuiltinFilter(), size}
	var outs []deploy.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		outs, err = deploy.Compare(eval, dataset.LimeWire, filters, deploy.Config{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*outs[0].InfectionRate, "nofilter-infection-%")
	b.ReportMetric(100*outs[1].InfectionRate, "builtin-infection-%")
	b.ReportMetric(100*outs[2].InfectionRate, "sizefilter-infection-%")
}

var (
	fakeOnce sync.Once
	fakeTr   *dataset.Trace
	fakeErr  error
)

// BenchmarkExtension_FakeContent turns on decoy files (35% of honest
// downloadable shares advertise sizes their content does not have) and
// measures the size-lie rate of downloads — the fake-content phenomenon
// follow-up studies measured at BitTorrent scale.
func BenchmarkExtension_FakeContent(b *testing.B) {
	fakeOnce.Do(func() {
		st, err := core.NewStudy(core.StudyConfig{
			Seed: benchSeed, Days: 1, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: benchSeed, FakeFileShare: 0.35},
		})
		if err != nil {
			fakeErr = err
			return
		}
		fakeTr, fakeErr = st.Run()
	})
	if fakeErr != nil {
		b.Fatal(fakeErr)
	}
	var lie analysis.SizeLie
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lie = analysis.SizeLieRate(fakeTr, dataset.LimeWire)
	}
	b.ReportMetric(100*lie.Rate, "size-lie-%")
	b.ReportMetric(float64(lie.Downloads), "downloads")
}

// --- Study engine pipeline ---

// runStudyPair runs the benchmark-scale two-network study (the same
// configuration sharedTrace measures) with an explicit worker-pool size
// and returns the total records produced.
func runStudyPair(b *testing.B, workers int) int {
	b.Helper()
	n := 0
	for _, cfg := range []core.StudyConfig{
		{Seed: benchSeed, Days: 2, QueriesPerDay: benchQueriesLW / 2,
			Workers:  workers,
			LimeWire: &netsim.LimeWireConfig{Seed: benchSeed}},
		{Seed: benchSeed, Days: 2, QueriesPerDay: benchQueriesFT / 2,
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
// pipelined engine with an 8-worker download/scan pool. ns/op is the
// headline end-to-end wall time; study-sec restates it for the
// benchmark-JSON artifact. The pre-pipeline engine took 12.78s wall on
// this configuration (8.19s LimeWire + 4.59s OpenFT).
func BenchmarkStudyPipeline(b *testing.B) {
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records = runStudyPair(b, 8)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "study-sec")
	b.ReportMetric(float64(records), "records")
}

// BenchmarkStudySequential runs the same study with a single download
// worker. Stage overlap (issue/collect/fetch/commit) still applies; the
// StudyPipeline/StudySequential ratio isolates what fetch-pool width
// buys on the host, independent of the scanner rewrite and the stage
// pipelining both configurations share.
func BenchmarkStudySequential(b *testing.B) {
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records = runStudyPair(b, 1)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "study-sec")
	b.ReportMetric(float64(records), "records")
}

// --- Ablations (DESIGN.md "design choices worth ablating") ---

var (
	noEchoOnce sync.Once
	noEchoTr   *dataset.Trace
	noEchoErr  error
)

// BenchmarkAblation_NoQueryEcho removes the query-echo responders: the
// LimeWire prevalence collapses toward the OpenFT regime, showing the 68%
// figure is driven by active responders, not shared-folder infections.
func BenchmarkAblation_NoQueryEcho(b *testing.B) {
	noEchoOnce.Do(func() {
		st, err := core.NewStudy(core.StudyConfig{
			Seed: benchSeed, Days: 1, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: benchSeed, EchoHosts: -1},
		})
		if err != nil {
			noEchoErr = err
			return
		}
		noEchoTr, noEchoErr = st.Run()
	})
	if noEchoErr != nil {
		b.Fatal(noEchoErr)
	}
	var p analysis.Prevalence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = analysis.MalwarePrevalence(noEchoTr)[dataset.LimeWire]
	}
	b.ReportMetric(100*p.Share, "no-echo-prevalence-%")
}

// BenchmarkAblation_SizeTolerance widens the size filter's matching from
// exact to ±4KB: detection cannot drop, but false positives appear —
// quantifying why the paper's filter matches sizes exactly.
func BenchmarkAblation_SizeTolerance(b *testing.B) {
	tr := sharedTrace(b)
	train, eval := filter.SplitTrace(tr, 0.3)
	var exact, loose filter.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := filter.TrainSizeFilter(train, dataset.LimeWire, 10)
		exact = filter.Evaluate(f, eval, dataset.LimeWire)
		f.Tolerance = 4096
		loose = filter.Evaluate(f, eval, dataset.LimeWire)
	}
	b.ReportMetric(100*exact.FalsePositiveRate, "exact-fp-%")
	b.ReportMetric(100*loose.FalsePositiveRate, "tol4k-fp-%")
	b.ReportMetric(100*loose.DetectionRate, "tol4k-detection-%")
}

var (
	polyOnce sync.Once
	polyTr   *dataset.Trace
	polyErr  error
)

// polymorphicCatalog rebuilds the LimeWire ecology with the top family
// size-polymorphic (64 size variants instead of 1).
func polymorphicCatalog() *malware.Catalog {
	c := malware.LimeWireCatalog()
	top := c.Families[0]
	sizes := make([]int64, 64)
	for i := range sizes {
		sizes[i] = top.Sizes[0] + int64(i)*512
	}
	top.Sizes = sizes
	return c
}

// BenchmarkAblation_Polymorphism gives the dominant family 64 size
// variants: the size filter's detection at small k collapses, showing the
// filter's dependence on malware having few characteristic sizes.
func BenchmarkAblation_Polymorphism(b *testing.B) {
	polyOnce.Do(func() {
		st, err := core.NewStudy(core.StudyConfig{
			Seed: benchSeed, Days: 1, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: benchSeed, Catalog: polymorphicCatalog()},
		})
		if err != nil {
			polyErr = err
			return
		}
		polyTr, polyErr = st.Run()
	})
	if polyErr != nil {
		b.Fatal(polyErr)
	}
	train, eval := filter.SplitTrace(polyTr, 0.3)
	var k3, k64 filter.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k3 = filter.Evaluate(filter.TrainSizeFilter(train, dataset.LimeWire, 3), eval, dataset.LimeWire)
		k64 = filter.Evaluate(filter.TrainSizeFilter(train, dataset.LimeWire, 0), eval, dataset.LimeWire)
	}
	b.ReportMetric(100*k3.DetectionRate, "poly-k3-detection-%")
	b.ReportMetric(100*k64.DetectionRate, "poly-kall-detection-%")
}

var (
	flatOnce sync.Once
	flatTr   *dataset.Trace
	flatErr  error
)

// BenchmarkAblation_FlatSearch collapses OpenFT's SEARCH tier to a single
// node: search semantics survive (same prevalence regime) but all search
// traffic concentrates on one indexer — the structural ablation of the
// two-tier design.
func BenchmarkAblation_FlatSearch(b *testing.B) {
	flatOnce.Do(func() {
		st, err := core.NewStudy(core.StudyConfig{
			Seed: benchSeed, Days: 1, QueriesPerDay: 120,
			OpenFT: &netsim.OpenFTConfig{Seed: benchSeed, SearchNodes: 1},
		})
		if err != nil {
			flatErr = err
			return
		}
		flatTr, flatErr = st.Run()
	})
	if flatErr != nil {
		b.Fatal(flatErr)
	}
	var p analysis.Prevalence
	var hosts []analysis.HostShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = analysis.MalwarePrevalence(flatTr)[dataset.OpenFT]
		hosts = analysis.HostConcentration(flatTr, dataset.OpenFT, "W32.Ferrox.A")
	}
	b.ReportMetric(100*p.Share, "flat-prevalence-%")
	b.ReportMetric(float64(len(hosts)), "flat-top-virus-hosts")
}
