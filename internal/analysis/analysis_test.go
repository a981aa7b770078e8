package analysis

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/dataset"
)

// buildTrace fabricates a labelled trace with known statistics:
// LimeWire — 100 downloadable responses, 68 malicious (62 FamA from public
// sources + 6 FamB from private sources), across 4 days.
func buildTrace() *dataset.Trace {
	tr := dataset.NewTrace()
	base := time.Date(2006, 3, 1, 12, 0, 0, 0, time.UTC)
	tr.QueriesSent[dataset.LimeWire] = 40
	add := func(i int, malware, srcIP, srcClass, cat string, size int64, day int) {
		tr.Add(dataset.ResponseRecord{
			Time: base.Add(time.Duration(day) * 24 * time.Hour), Network: dataset.LimeWire,
			Query: "q", QueryCategory: cat,
			Filename: fmt.Sprintf("file%d.exe", i), Size: size,
			SourceIP: srcIP, SourcePort: 6346, SourceClass: srcClass,
			Downloadable: true, Downloaded: true,
			BodyHash: fmt.Sprintf("hash-%s-%d", malware, size), BodySize: size,
			Malware: malware,
		})
	}
	n := 0
	for i := 0; i < 62; i++ { // FamA: public, one size
		add(n, "FamA", fmt.Sprintf("5.9.0.%d", i%16+1), "public", "music", 184342, n%4)
		n++
	}
	for i := 0; i < 6; i++ { // FamB: private sources
		add(n, "FamB", fmt.Sprintf("10.0.0.%d", i+1), "private", "software", 4226, n%4)
		n++
	}
	for i := 0; i < 32; i++ { // clean downloadables, varied sizes
		add(n, "", fmt.Sprintf("24.16.0.%d", i+1), "public", "music", int64(50000+i*977), n%4)
		n++
	}
	// Some media (not downloadable).
	for i := 0; i < 20; i++ {
		tr.Add(dataset.ResponseRecord{
			Time: base, Network: dataset.LimeWire, Query: "q", QueryCategory: "music",
			Filename: "song.mp3", Size: 4_000_000, SourceIP: "24.16.1.1",
			SourceClass: "public", Downloadable: false,
		})
	}
	return tr
}

func TestDataSummary(t *testing.T) {
	tr := buildTrace()
	s := DataSummary(tr)[dataset.LimeWire]
	if s.Responses != 120 || s.Downloadable != 100 || s.Downloaded != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.QueriesSent != 40 {
		t.Fatalf("queries = %d", s.QueriesSent)
	}
	if s.UniqueFiles == 0 || s.UniqueSources == 0 {
		t.Fatalf("uniques = %+v", s)
	}
	if s.TraceDays != 4 {
		t.Fatalf("days = %d", s.TraceDays)
	}
}

func TestMalwarePrevalence(t *testing.T) {
	p := MalwarePrevalence(buildTrace())[dataset.LimeWire]
	if p.Downloadable != 100 || p.Labelled != 100 || p.Malicious != 68 {
		t.Fatalf("prevalence = %+v", p)
	}
	if math.Abs(p.Share-0.68) > 1e-9 {
		t.Fatalf("share = %v", p.Share)
	}
}

func TestTopMalware(t *testing.T) {
	top := TopMalware(buildTrace(), dataset.LimeWire, 0)
	if len(top) != 2 {
		t.Fatalf("families = %d", len(top))
	}
	if top[0].Family != "FamA" || top[0].Count != 62 {
		t.Fatalf("top = %+v", top[0])
	}
	if math.Abs(top[0].Share-62.0/68) > 1e-9 {
		t.Fatalf("share = %v", top[0].Share)
	}
	if math.Abs(top[1].CumShare-1.0) > 1e-9 {
		t.Fatalf("cum = %v", top[1].CumShare)
	}
	if top[0].Hosts != 16 || top[1].Hosts != 6 {
		t.Fatalf("hosts = %d, %d", top[0].Hosts, top[1].Hosts)
	}
	if top[0].Sizes != 1 {
		t.Fatalf("sizes = %d", top[0].Sizes)
	}
	if got := TopMalware(buildTrace(), dataset.LimeWire, 1); len(got) != 1 {
		t.Fatalf("k=1 returned %d", len(got))
	}
}

func TestConcentrationCurve(t *testing.T) {
	curve := ConcentrationCurve(buildTrace(), dataset.LimeWire)
	if len(curve) != 2 {
		t.Fatalf("curve = %v", curve)
	}
	if curve[0] >= curve[1] || math.Abs(curve[1]-1) > 1e-9 {
		t.Fatalf("curve not monotone to 1: %v", curve)
	}
}

func TestMaliciousSources(t *testing.T) {
	srcs := MaliciousSources(buildTrace(), dataset.LimeWire)
	if len(srcs) != 2 || srcs[0].Class != "public" {
		t.Fatalf("sources = %+v", srcs)
	}
	if srcs[1].Class != "private" || math.Abs(srcs[1].Share-6.0/68) > 1e-9 {
		t.Fatalf("private row = %+v", srcs[1])
	}
	if srcs := MaliciousSources(buildTrace(), dataset.OpenFT); len(srcs) != 0 {
		t.Fatalf("phantom sources on empty network: %+v", srcs)
	}
}

func TestHostConcentration(t *testing.T) {
	hosts := HostConcentration(buildTrace(), dataset.LimeWire, "FamB")
	if len(hosts) != 6 {
		t.Fatalf("FamB hosts = %d", len(hosts))
	}
	var sum float64
	for _, h := range hosts {
		sum += h.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum = %v", sum)
	}
	all := HostConcentration(buildTrace(), dataset.LimeWire, "")
	if len(all) != 22 {
		t.Fatalf("all hosts = %d", len(all))
	}
	if all[0].Count < all[len(all)-1].Count {
		t.Fatal("hosts not ranked")
	}
}

func TestDailySeries(t *testing.T) {
	series := DailySeries(buildTrace(), dataset.LimeWire)
	if len(series) != 4 {
		t.Fatalf("days = %d", len(series))
	}
	var resp, mal int
	for i, p := range series {
		if p.Day != i {
			t.Fatalf("day indices = %+v", series)
		}
		resp += p.Responses
		mal += p.Malicious
	}
	if resp != 100 || mal != 68 {
		t.Fatalf("totals = %d, %d", resp, mal)
	}
}

func TestSizeDistributions(t *testing.T) {
	malCDF, cleanCDF := SizeDistributions(buildTrace(), dataset.LimeWire)
	if malCDF.Len() != 68 || cleanCDF.Len() != 32 {
		t.Fatalf("cdf sizes = %d, %d", malCDF.Len(), cleanCDF.Len())
	}
	// Malware clusters at two sizes; the CDF jumps to ~0.09 at 4226.
	if got := malCDF.At(4226); math.Abs(got-6.0/68) > 1e-9 {
		t.Fatalf("mal CDF at 4226 = %v", got)
	}
	if DistinctMaliciousSizes(buildTrace(), dataset.LimeWire) != 2 {
		t.Fatal("distinct malicious sizes != 2")
	}
}

func TestQueryCategoryRates(t *testing.T) {
	rates := QueryCategoryRates(buildTrace(), dataset.LimeWire)
	if len(rates) != 2 {
		t.Fatalf("categories = %+v", rates)
	}
	if rates[0].Category != "software" {
		t.Fatalf("top category = %+v", rates[0])
	}
	if math.Abs(rates[0].MaliciousShare-1.0) > 1e-9 {
		t.Fatalf("software share = %v", rates[0].MaliciousShare)
	}
	// music: 62 malicious of 94 labelled downloadable.
	if math.Abs(rates[1].MaliciousShare-62.0/94) > 1e-9 {
		t.Fatalf("music share = %v", rates[1].MaliciousShare)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := dataset.NewTrace()
	if len(DataSummary(tr)) != 0 {
		t.Fatal("summary on empty trace")
	}
	if len(DailySeries(tr, dataset.LimeWire)) != 0 {
		t.Fatal("series on empty trace")
	}
	if len(TopMalware(tr, dataset.LimeWire, 0)) != 0 {
		t.Fatal("top malware on empty trace")
	}
}

func TestVendorShares(t *testing.T) {
	tr := dataset.NewTrace()
	base := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	add := func(vendor, malware string) {
		tr.Add(dataset.ResponseRecord{
			Time: base, Network: dataset.LimeWire, Filename: "f.exe", Size: 10,
			Vendor: vendor, Downloadable: true, Downloaded: true, Malware: malware,
		})
	}
	for i := 0; i < 8; i++ {
		add("LIME", "FamA")
	}
	for i := 0; i < 2; i++ {
		add("LIME", "")
	}
	for i := 0; i < 10; i++ {
		add("BEAR", "")
	}
	vs := VendorShares(tr, dataset.LimeWire)
	if len(vs) != 2 {
		t.Fatalf("vendors = %+v", vs)
	}
	if vs[0].Vendor != "LIME" || math.Abs(vs[0].MaliciousShare-0.8) > 1e-9 {
		t.Fatalf("top vendor = %+v", vs[0])
	}
	if vs[1].Vendor != "BEAR" || vs[1].MaliciousShare != 0 {
		t.Fatalf("second vendor = %+v", vs[1])
	}
}

func TestWriteReport(t *testing.T) {
	var buf strings.Builder
	if err := WriteReport(&buf, buildTrace(), ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"T1: Data collection summary",
		"T2: Malware prevalence",
		"T3 (limewire)",
		"F1 (limewire)",
		"T4: Source address classes",
		"F2: Per-host concentration",
		"F3: Downloadable/malicious responses per trace day",
		"F4: Size distribution",
		"T6: Malware exposure by query category",
		"FamA",
		"private",
		"share=68.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteReportSingleNetwork(t *testing.T) {
	var buf strings.Builder
	err := WriteReport(&buf, buildTrace(), ReportOptions{Networks: []dataset.Network{dataset.OpenFT}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "limewire") {
		t.Fatal("restricted report leaked other network")
	}
}

func TestWriteReportPropagatesErrors(t *testing.T) {
	if err := WriteReport(failWriter{}, buildTrace(), ReportOptions{}); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestGini(t *testing.T) {
	if g := Gini([]int{10, 10, 10, 10}); math.Abs(g) > 1e-9 {
		t.Fatalf("even Gini = %v", g)
	}
	// All mass on one of many entries -> close to 1.
	concentrated := make([]int, 100)
	concentrated[0] = 1000
	if g := Gini(concentrated); g < 0.95 {
		t.Fatalf("concentrated Gini = %v", g)
	}
	if Gini(nil) != 0 || Gini([]int{0, 0}) != 0 {
		t.Fatal("degenerate Gini nonzero")
	}
	// Order must not matter.
	if Gini([]int{1, 2, 3}) != Gini([]int{3, 1, 2}) {
		t.Fatal("Gini order-sensitive")
	}
	// More skew -> higher Gini.
	if Gini([]int{1, 1, 8}) <= Gini([]int{2, 3, 5}) {
		t.Fatal("Gini not monotone in skew")
	}
}

func TestHostGini(t *testing.T) {
	tr := buildTrace()
	g := HostGini(tr, dataset.LimeWire)
	if g <= 0 || g >= 1 {
		t.Fatalf("HostGini = %v", g)
	}
	if HostGini(tr, dataset.OpenFT) != 0 {
		t.Fatal("empty network Gini nonzero")
	}
}

func TestSizeLieRate(t *testing.T) {
	tr := dataset.NewTrace()
	base := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	add := func(size, body int64) {
		tr.Add(dataset.ResponseRecord{
			Time: base, Network: dataset.LimeWire, Filename: "f.exe",
			Size: size, BodySize: body, Downloadable: true, Downloaded: true,
		})
	}
	add(1000, 1000)
	add(1000, 1000)
	add(5_000_000, 2048) // decoy
	got := SizeLieRate(tr, dataset.LimeWire)
	if got.Downloads != 3 || got.Lies != 1 {
		t.Fatalf("size lie = %+v", got)
	}
	if math.Abs(got.Rate-1.0/3) > 1e-9 {
		t.Fatalf("rate = %v", got.Rate)
	}
	if SizeLieRate(tr, dataset.OpenFT).Downloads != 0 {
		t.Fatal("phantom downloads")
	}
}
