package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
)

// runOne executes a scaled-down one-day study of one network.
func runOne(t *testing.T, nw dataset.Network, seed uint64, queries int) *dataset.Trace {
	t.Helper()
	cfg := StudyConfig{Seed: seed, Days: 1, QueriesPerDay: queries}
	if nw == dataset.LimeWire {
		cfg.LimeWire = &netsim.LimeWireConfig{Seed: seed}
	} else {
		cfg.OpenFT = &netsim.OpenFTConfig{Seed: seed}
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStudyNeedsANetwork(t *testing.T) {
	if _, err := NewStudy(StudyConfig{}); err == nil {
		t.Fatal("empty study accepted")
	}
}

func TestLimeWireStudyShape(t *testing.T) {
	t.Parallel()
	tr := runOne(t, dataset.LimeWire, 11, 160)

	if tr.QueriesSent[dataset.LimeWire] != 160 {
		t.Fatalf("queries sent = %d", tr.QueriesSent[dataset.LimeWire])
	}
	prev := analysis.MalwarePrevalence(tr)[dataset.LimeWire]
	if prev.Labelled < 1000 {
		t.Fatalf("too few labelled responses: %+v", prev)
	}
	// The paper: 68% of downloadable responses malicious. Tolerate the
	// small-sample band.
	if prev.Share < 0.58 || prev.Share > 0.78 {
		t.Fatalf("prevalence = %.3f, want ~0.68", prev.Share)
	}

	top := analysis.TopMalware(tr, dataset.LimeWire, 3)
	if len(top) < 3 {
		t.Fatalf("top families = %d", len(top))
	}
	// The paper: top 3 account for 99% of malicious responses.
	if top[2].CumShare < 0.96 {
		t.Fatalf("top-3 share = %.4f, want ~0.99", top[2].CumShare)
	}

	// The paper: 28% of malicious responses from private address ranges.
	var private float64
	for _, s := range analysis.MaliciousSources(tr, dataset.LimeWire) {
		if s.Class == "private" {
			private = s.Share
		}
	}
	if private < 0.18 || private > 0.38 {
		t.Fatalf("private share = %.3f, want ~0.28", private)
	}

	// Push-flagged (firewalled) hits must have been downloaded via push.
	var pushDownloads int
	for _, r := range tr.Records {
		if r.PushFlagged && r.Downloaded {
			pushDownloads++
		}
	}
	if pushDownloads == 0 {
		t.Fatal("no push downloads succeeded")
	}
}

func TestLimeWireFiltering(t *testing.T) {
	t.Parallel()
	tr := runOne(t, dataset.LimeWire, 13, 160)
	train, eval := filter.SplitTrace(tr, 0.3)

	// The paper: size filter detects >99% of malware responses; the
	// built-in mechanisms ~6%.
	size := filter.TrainSizeFilter(train, dataset.LimeWire, 10)
	sizeRes := filter.Evaluate(size, eval, dataset.LimeWire)
	if sizeRes.DetectionRate < 0.97 {
		t.Fatalf("size filter detection = %.4f, want > 0.99", sizeRes.DetectionRate)
	}
	if sizeRes.FalsePositiveRate > 0.02 {
		t.Fatalf("size filter fp = %.4f", sizeRes.FalsePositiveRate)
	}

	builtin := filter.Evaluate(filter.NewBuiltinFilter(), eval, dataset.LimeWire)
	if builtin.DetectionRate < 0.02 || builtin.DetectionRate > 0.12 {
		t.Fatalf("builtin detection = %.4f, want ~0.06", builtin.DetectionRate)
	}
	if sizeRes.DetectionRate < 10*builtin.DetectionRate {
		t.Fatalf("size filter (%.3f) does not dominate builtin (%.3f)",
			sizeRes.DetectionRate, builtin.DetectionRate)
	}
}

func TestOpenFTStudyShape(t *testing.T) {
	t.Parallel()
	tr := runOne(t, dataset.OpenFT, 17, 300)

	prev := analysis.MalwarePrevalence(tr)[dataset.OpenFT]
	if prev.Labelled < 1000 {
		t.Fatalf("too few labelled responses: %+v", prev)
	}
	// The paper: ~3% of downloadable responses malicious.
	if prev.Share < 0.01 || prev.Share > 0.06 {
		t.Fatalf("prevalence = %.4f, want ~0.03", prev.Share)
	}

	top := analysis.TopMalware(tr, dataset.OpenFT, 0)
	if len(top) == 0 {
		t.Fatal("no malware observed")
	}
	// The paper: top virus = 67% of malicious responses, served by a
	// single host.
	if top[0].Family != "W32.Ferrox.A" {
		t.Fatalf("top family = %s", top[0].Family)
	}
	if top[0].Share < 0.5 || top[0].Share > 0.8 {
		t.Fatalf("top-1 share = %.3f, want ~0.67", top[0].Share)
	}
	if top[0].Hosts != 1 {
		t.Fatalf("top virus served by %d hosts, want 1", top[0].Hosts)
	}
	hosts := analysis.HostConcentration(tr, dataset.OpenFT, "W32.Ferrox.A")
	if len(hosts) != 1 || hosts[0].Share != 1.0 {
		t.Fatalf("host concentration = %+v", hosts)
	}
}

func TestStudyTraceSerializes(t *testing.T) {
	t.Parallel()
	tr := runOne(t, dataset.LimeWire, 19, 40)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(tr.Records))
	}
}

func TestStudyDeterministicPopulationStats(t *testing.T) {
	t.Parallel()
	// Two runs with the same seed build identical populations and query
	// streams, and every flood is collected to completion, so the
	// measured prevalence agrees exactly.
	a := runOne(t, dataset.LimeWire, 23, 60)
	b := runOne(t, dataset.LimeWire, 23, 60)
	pa := analysis.MalwarePrevalence(a)[dataset.LimeWire]
	pb := analysis.MalwarePrevalence(b)[dataset.LimeWire]
	if pa != pb {
		t.Fatalf("same-seed runs diverge: %+v vs %+v", pa, pb)
	}
}

func TestVirtualTimestampsSpanTrace(t *testing.T) {
	t.Parallel()
	st, err := NewStudy(StudyConfig{
		Seed: 29, Days: 3, QueriesPerDay: 20,
		LimeWire: &netsim.LimeWireConfig{Seed: 29, HonestLeaves: 20, EchoHosts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Days() != 3 {
		t.Fatalf("trace days = %d, want 3", tr.Days())
	}
	series := analysis.DailySeries(tr, dataset.LimeWire)
	if len(series) != 3 {
		t.Fatalf("daily series = %d days", len(series))
	}
	for _, p := range series {
		if p.Responses == 0 {
			t.Fatalf("day %d empty", p.Day)
		}
	}
}

func TestStudyWithChurn(t *testing.T) {
	t.Parallel()
	st, err := NewStudy(StudyConfig{
		Seed: 31, Days: 3, QueriesPerDay: 30,
		ChurnPerDay: 0.3,
		LimeWire:    &netsim.LimeWireConfig{Seed: 31, HonestLeaves: 30, EchoHosts: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	var churnLines int
	st.Progress = func(f string, a ...any) {
		if strings.Contains(f, "churned") {
			churnLines++
		}
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if churnLines != 2 {
		t.Fatalf("churn progress lines = %d, want 2 (day boundaries in a 3-day trace)", churnLines)
	}
	// The study still produces a coherent labelled trace.
	prev := analysis.MalwarePrevalence(tr)[dataset.LimeWire]
	if prev.Labelled == 0 || prev.Malicious == 0 {
		t.Fatalf("churned study degenerate: %+v", prev)
	}
}

func TestCombinedStudyMergesBothNetworks(t *testing.T) {
	t.Parallel()
	st, err := NewStudy(StudyConfig{
		Seed: 37, Days: 1, QueriesPerDay: 40,
		LimeWire: &netsim.LimeWireConfig{Seed: 37, HonestLeaves: 30, EchoHosts: 10},
		OpenFT:   &netsim.OpenFTConfig{Seed: 37, HonestUsers: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.QueriesSent[dataset.LimeWire] != 40 || tr.QueriesSent[dataset.OpenFT] != 40 {
		t.Fatalf("queries sent = %v", tr.QueriesSent)
	}
	lw, ft := tr.ByNetwork(dataset.LimeWire), tr.ByNetwork(dataset.OpenFT)
	if len(lw) == 0 || len(ft) == 0 {
		t.Fatalf("records: lw=%d ft=%d", len(lw), len(ft))
	}
	if len(lw)+len(ft) != len(tr.Records) {
		t.Fatal("merged trace contains foreign records")
	}
	// Both networks' malware ecologies must label correctly in one study.
	foundLW, foundFT := false, false
	for _, r := range tr.Records {
		if r.Network == dataset.LimeWire && r.Malware == "W32.Sivex.A" {
			foundLW = true
		}
		if r.Network == dataset.OpenFT && r.Malware == "W32.Ferrox.A" {
			foundFT = true
		}
	}
	if !foundLW || !foundFT {
		t.Fatalf("cross-network labelling incomplete: lw=%v ft=%v", foundLW, foundFT)
	}
}

// dropTotals sums p2p_messages_drop_total per network, over every message
// type, from the default registry.
func dropTotals(t *testing.T) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	totals := make(map[string]int64)
	for _, line := range strings.Split(buf.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(series, "p2p_messages_drop_total{") {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("drop series %q: %v", line, err)
		}
		for _, network := range []string{"gnutella", "openft"} {
			if strings.Contains(series, `network="`+network+`"`) {
				totals[network] += n
			}
		}
	}
	return totals
}

// TestCleanStudyDropsNoFloodMessage pins that no link queue overflows in a
// clean study: a full queue drops a message silently, and the flood then
// completes with fewer hits than the population holds. The drop counters
// are process-wide, so this test must not run in parallel with others.
func TestCleanStudyDropsNoFloodMessage(t *testing.T) {
	full := func(seed uint64) StudyConfig {
		return StudyConfig{Seed: seed, Days: 3, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: seed}, OpenFT: &netsim.OpenFTConfig{Seed: seed}}
	}
	for name, cfg := range map[string]StudyConfig{"small": smallStudy(5, 8), "seed 3": full(3)} {
		before := dropTotals(t)
		studyStreams(t, cfg)
		after := dropTotals(t)
		for _, network := range []string{"gnutella", "openft"} {
			if d := after[network] - before[network]; d != 0 {
				t.Errorf("%s: %s dropped %d messages on full send queues", name, network, d)
			}
		}
	}
}
