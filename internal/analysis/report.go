package analysis

import (
	"fmt"
	"io"

	"p2pmalware/internal/dataset"
)

// VendorShare is one row of the vendor breakdown: which servent
// implementations (by advertised vendor code) serve malicious responses.
type VendorShare struct {
	// Vendor is the QHD vendor code ("LIME", "BEAR", ...; empty for
	// networks without vendor codes).
	Vendor string
	// Malicious and Total count the vendor's responses.
	Malicious int
	Total     int
	// MaliciousShare is Malicious / Total for this vendor.
	MaliciousShare float64
}

// VendorShares breaks downloadable, labelled responses down by servent
// vendor code, sorted by descending malicious share.
func VendorShares(tr *dataset.Trace, nw dataset.Network) []VendorShare {
	type agg struct{ mal, total int }
	byVendor := make(map[string]*agg)
	for _, r := range tr.Records {
		if r.Network != nw || !r.Downloadable || !r.Downloaded {
			continue
		}
		a := byVendor[r.Vendor]
		if a == nil {
			a = &agg{}
			byVendor[r.Vendor] = a
		}
		a.total++
		if r.Malicious() {
			a.mal++
		}
	}
	out := make([]VendorShare, 0, len(byVendor))
	for v, a := range byVendor {
		share := 0.0
		if a.total > 0 {
			share = float64(a.mal) / float64(a.total)
		}
		out = append(out, VendorShare{Vendor: v, Malicious: a.mal, Total: a.total, MaliciousShare: share})
	}
	sortVendorShares(out)
	return out
}

func sortVendorShares(vs []VendorShare) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0; j-- {
			a, b := vs[j-1], vs[j]
			if b.MaliciousShare > a.MaliciousShare ||
				(b.MaliciousShare == a.MaliciousShare && b.Vendor < a.Vendor) {
				vs[j-1], vs[j] = b, a
			} else {
				break
			}
		}
	}
}

// reportTopK is the number of rows in the top-malware tables.
const reportTopK = 10

// ReportOptions tune WriteReport.
type ReportOptions struct {
	// Networks restricts the report (default: both).
	Networks []dataset.Network
}

// WriteReport renders the full evaluation — tables T1-T4, T6 and T7 and
// figures F1-F4 — as text. `p2panalyze report` is a thin wrapper around it.
func WriteReport(w io.Writer, tr *dataset.Trace, opts ReportOptions) error {
	networks := opts.Networks
	if len(networks) == 0 {
		networks = []dataset.Network{dataset.LimeWire, dataset.OpenFT}
	}
	// Errors are checked once at the end via an error-latching writer to
	// keep the table code readable.
	ew := &errWriter{w: w}
	p := func(format string, args ...any) { fmt.Fprintf(ew, format, args...) }

	p("== T1: Data collection summary ==\n")
	summary := DataSummary(tr)
	p("%-10s %9s %10s %13s %11s %9s %8s %8s\n",
		"network", "queries", "responses", "downloadable", "downloaded", "failed", "files", "sources")
	for _, nw := range networks {
		s, ok := summary[nw]
		if !ok {
			continue
		}
		p("%-10s %9d %10d %13d %11d %9d %8d %8d\n",
			nw, s.QueriesSent, s.Responses, s.Downloadable, s.Downloaded,
			s.DownloadFailed, s.UniqueFiles, s.UniqueSources)
	}

	p("\n== T2: Malware prevalence in downloadable responses ==\n")
	prev := MalwarePrevalence(tr)
	for _, nw := range networks {
		pr, ok := prev[nw]
		if !ok {
			continue
		}
		p("%-10s labelled=%d malicious=%d share=%.1f%%\n", nw, pr.Labelled, pr.Malicious, 100*pr.Share)
	}

	for _, nw := range networks {
		top := TopMalware(tr, nw, reportTopK)
		if len(top) == 0 {
			continue
		}
		p("\n== T3 (%s): Top malware by share of malicious responses ==\n", nw)
		p("%-4s %-20s %9s %8s %8s %6s %6s\n", "rank", "family", "responses", "share", "cum", "hosts", "sizes")
		for i, fs := range top {
			p("%-4d %-20s %9d %7.2f%% %7.2f%% %6d %6d\n",
				i+1, fs.Family, fs.Count, 100*fs.Share, 100*fs.CumShare, fs.Hosts, fs.Sizes)
		}
	}

	for _, nw := range networks {
		curve := ConcentrationCurve(tr, nw)
		if len(curve) == 0 {
			continue
		}
		p("\n== F1 (%s): Cumulative malicious-response share by family rank ==\n", nw)
		for i, c := range curve {
			p("  top-%-3d %6.2f%%\n", i+1, 100*c)
			if i >= 9 {
				p("  ... (%d families total)\n", len(curve))
				break
			}
		}
	}

	p("\n== T4: Source address classes of malicious responses ==\n")
	for _, nw := range networks {
		srcs := MaliciousSources(tr, nw)
		if len(srcs) == 0 {
			continue
		}
		p("%s:\n", nw)
		for _, s := range srcs {
			p("  %-12s %8d %7.2f%%\n", s.Class, s.Count, 100*s.Share)
		}
	}

	p("\n== F2: Per-host concentration of malicious responses ==\n")
	for _, nw := range networks {
		hosts := HostConcentration(tr, nw, "")
		if len(hosts) == 0 {
			continue
		}
		var top5 float64
		for i, h := range hosts {
			if i >= 5 {
				break
			}
			top5 += h.Share
		}
		p("%s: %d serving hosts; top host %.2f%%, top 5 hosts %.2f%%, Gini %.3f\n",
			nw, len(hosts), 100*hosts[0].Share, 100*top5, HostGini(tr, nw))
		if top := TopMalware(tr, nw, 1); len(top) == 1 {
			famHosts := HostConcentration(tr, nw, top[0].Family)
			p("%s: top family %s served by %d host(s)\n", nw, top[0].Family, len(famHosts))
		}
	}

	p("\n== F3: Downloadable/malicious responses per trace day ==\n")
	for _, nw := range networks {
		series := DailySeries(tr, nw)
		if len(series) == 0 {
			continue
		}
		p("%s:\n", nw)
		for _, pt := range series {
			p("  day %-3d %s  responses=%-6d malicious=%-6d\n",
				pt.Day, pt.Date.Format("2006-01-02"), pt.Responses, pt.Malicious)
		}
	}

	p("\n== F4: Size distribution of labelled downloadable responses ==\n")
	for _, nw := range networks {
		mal, clean := SizeDistributions(tr, nw)
		if mal.Len() == 0 && clean.Len() == 0 {
			continue
		}
		p("%s: malicious n=%d distinct-sizes=%d | clean n=%d\n",
			nw, mal.Len(), DistinctMaliciousSizes(tr, nw), clean.Len())
		for _, pct := range []float64{10, 25, 50, 75, 90, 99} {
			p("  p%-3.0f malicious=%-10.0f clean=%-10.0f\n", pct, mal.Percentile(pct), clean.Percentile(pct))
		}
	}

	p("\n== T6: Malware exposure by query category ==\n")
	for _, nw := range networks {
		rates := QueryCategoryRates(tr, nw)
		if len(rates) == 0 {
			continue
		}
		p("%s:\n", nw)
		p("  %-10s %10s %13s %10s %8s\n", "category", "responses", "downloadable", "malicious", "share")
		for _, c := range rates {
			p("  %-10s %10d %13d %10d %7.2f%%\n",
				c.Category, c.Responses, c.Downloadable, c.Malicious, 100*c.MaliciousShare)
		}
	}

	p("\n== T7: Malicious share by servent vendor ==\n")
	for _, nw := range networks {
		vendors := VendorShares(tr, nw)
		if len(vendors) == 0 {
			continue
		}
		p("%s:\n", nw)
		for _, v := range vendors {
			name := v.Vendor
			if name == "" {
				name = "(none)"
			}
			p("  %-8s %8d/%8d %7.2f%%\n", name, v.Malicious, v.Total, 100*v.MaliciousShare)
		}
	}

	return ew.err
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}
