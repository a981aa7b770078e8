// Package analysis computes the paper's tables and figures from a
// measurement trace: data-collection summary (T1), malware prevalence
// (T2), top-malware concentration (T3, F1), source-address analysis (T4),
// per-host concentration (F2), temporal series (F3), size distributions
// (F4), and per-query-category rates (T6). Filtering experiments (T5, F5)
// live in internal/filter.
package analysis

import (
	"sort"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/stats"
)

// NetworkSummary is one network's row of the data-collection summary (T1).
type NetworkSummary struct {
	// QueriesSent is the number of queries the instrumented client issued.
	QueriesSent int
	// Responses is the total query responses recorded.
	Responses int
	// Downloadable counts responses whose filename is an archive or
	// executable.
	Downloadable int
	// Downloaded counts responses whose content was fetched.
	Downloaded int
	// DownloadFailed counts downloadable responses whose fetch failed.
	DownloadFailed int
	// UniqueFiles counts distinct downloaded contents (by body hash).
	UniqueFiles int
	// UniqueSources counts distinct source endpoints.
	UniqueSources int
	// TraceDays is the trace duration in days.
	TraceDays int
}

// DataSummary computes T1 for each network present in the trace.
func DataSummary(tr *dataset.Trace) map[dataset.Network]NetworkSummary {
	out := make(map[dataset.Network]NetworkSummary)
	hashes := make(map[dataset.Network]map[string]bool)
	sources := make(map[dataset.Network]map[string]bool)
	for _, r := range tr.Records {
		s := out[r.Network]
		if hashes[r.Network] == nil {
			hashes[r.Network] = make(map[string]bool)
			sources[r.Network] = make(map[string]bool)
		}
		s.Responses++
		if r.Downloadable {
			s.Downloadable++
			if r.Downloaded {
				s.Downloaded++
				hashes[r.Network][r.BodyHash] = true
			} else {
				s.DownloadFailed++
			}
		}
		sources[r.Network][r.SourceIP] = true
		out[r.Network] = s
	}
	for nw := range out {
		s := out[nw]
		s.QueriesSent = tr.QueriesSent[nw]
		s.UniqueFiles = len(hashes[nw])
		s.UniqueSources = len(sources[nw])
		s.TraceDays = tr.Days()
		out[nw] = s
	}
	return out
}

// Prevalence is T2: the malicious share of downloadable responses.
type Prevalence struct {
	// Downloadable is the number of downloadable responses considered.
	Downloadable int
	// Labelled is the subset that was successfully downloaded and
	// scanned (the denominator).
	Labelled int
	// Malicious is the number labelled as malware.
	Malicious int
	// Share is Malicious / Labelled.
	Share float64
}

// MalwarePrevalence computes T2 per network.
func MalwarePrevalence(tr *dataset.Trace) map[dataset.Network]Prevalence {
	out := make(map[dataset.Network]Prevalence)
	for _, r := range tr.Records {
		if !r.Downloadable {
			continue
		}
		p := out[r.Network]
		p.Downloadable++
		if r.Downloaded {
			p.Labelled++
			if r.Malicious() {
				p.Malicious++
			}
		}
		out[r.Network] = p
	}
	for nw := range out {
		p := out[nw]
		if p.Labelled > 0 {
			p.Share = float64(p.Malicious) / float64(p.Labelled)
		}
		out[nw] = p
	}
	return out
}

// FamilyShare is one row of T3: a malware family's share of malicious
// responses.
type FamilyShare struct {
	// Family is the detection name.
	Family string
	// Count is the number of malicious responses attributed to it.
	Count int
	// Share is Count over all malicious responses on the network.
	Share float64
	// CumShare is the cumulative share of this and all higher-ranked
	// families.
	CumShare float64
	// Hosts is the number of distinct source endpoints serving it.
	Hosts int
	// Sizes is the number of distinct advertised sizes observed.
	Sizes int
}

// TopMalware computes T3: families ranked by malicious-response count.
// k <= 0 returns all families.
func TopMalware(tr *dataset.Trace, nw dataset.Network, k int) []FamilyShare {
	counts := stats.NewCounter()
	hosts := make(map[string]map[string]bool)
	sizes := make(map[string]map[int64]bool)
	for _, r := range tr.Records {
		if r.Network != nw || !r.Malicious() {
			continue
		}
		counts.Inc(r.Malware)
		if hosts[r.Malware] == nil {
			hosts[r.Malware] = make(map[string]bool)
			sizes[r.Malware] = make(map[int64]bool)
		}
		hosts[r.Malware][r.SourceIP] = true
		sizes[r.Malware][r.Size] = true
	}
	entries := counts.TopK(k)
	out := make([]FamilyShare, 0, len(entries))
	var cum float64
	for _, e := range entries {
		cum += e.Share
		out = append(out, FamilyShare{
			Family:   e.Key,
			Count:    int(e.Count),
			Share:    e.Share,
			CumShare: cum,
			Hosts:    len(hosts[e.Key]),
			Sizes:    len(sizes[e.Key]),
		})
	}
	return out
}

// ConcentrationCurve computes F1: cumulative share of malicious responses
// held by the top-n families, for n = 1..number of families.
func ConcentrationCurve(tr *dataset.Trace, nw dataset.Network) []float64 {
	shares := TopMalware(tr, nw, 0)
	out := make([]float64, len(shares))
	for i, s := range shares {
		out[i] = s.CumShare
	}
	return out
}

// SourceClassShare is one row of T4.
type SourceClassShare struct {
	// Class is the address class ("public", "private", ...).
	Class string
	// Count is the number of malicious responses from that class.
	Count int
	// Share is the fraction of malicious responses.
	Share float64
}

// MaliciousSources computes T4: source address classes of malicious
// responses, in descending share order.
func MaliciousSources(tr *dataset.Trace, nw dataset.Network) []SourceClassShare {
	counts := stats.NewCounter()
	for _, r := range tr.Records {
		if r.Network == nw && r.Malicious() {
			counts.Inc(r.SourceClass)
		}
	}
	entries := counts.TopK(0)
	out := make([]SourceClassShare, 0, len(entries))
	for _, e := range entries {
		out = append(out, SourceClassShare{Class: e.Key, Count: int(e.Count), Share: e.Share})
	}
	return out
}

// HostShare is one row of F2: a source host's share of a family's (or
// network's) malicious responses.
type HostShare struct {
	// Host is the source endpoint IP.
	Host string
	// Count is its malicious responses.
	Count int
	// Share is its fraction of the scope's malicious responses.
	Share float64
}

// HostConcentration computes F2: hosts ranked by malicious-response count.
// family == "" scopes to all malicious responses on the network.
func HostConcentration(tr *dataset.Trace, nw dataset.Network, family string) []HostShare {
	counts := stats.NewCounter()
	for _, r := range tr.Records {
		if r.Network != nw || !r.Malicious() {
			continue
		}
		if family != "" && r.Malware != family {
			continue
		}
		counts.Inc(r.SourceIP)
	}
	entries := counts.TopK(0)
	out := make([]HostShare, 0, len(entries))
	for _, e := range entries {
		out = append(out, HostShare{Host: e.Key, Count: int(e.Count), Share: e.Share})
	}
	return out
}

// DayPoint is one day of the temporal series (F3).
type DayPoint struct {
	// Day is the trace day index (0-based).
	Day int
	// Date is the day's start.
	Date time.Time
	// Responses and Malicious count that day's downloadable and malicious
	// responses.
	Responses int
	Malicious int
}

// DailySeries computes F3: downloadable and malicious responses per trace
// day.
func DailySeries(tr *dataset.Trace, nw dataset.Network) []DayPoint {
	if len(tr.Records) == 0 {
		return nil
	}
	start := tr.Start.Truncate(24 * time.Hour)
	byDay := make(map[int]*DayPoint)
	for _, r := range tr.Records {
		if r.Network != nw || !r.Downloadable {
			continue
		}
		day := int(r.Time.Sub(start).Hours() / 24)
		p := byDay[day]
		if p == nil {
			p = &DayPoint{Day: day, Date: start.Add(time.Duration(day) * 24 * time.Hour)}
			byDay[day] = p
		}
		p.Responses++
		if r.Malicious() {
			p.Malicious++
		}
	}
	out := make([]DayPoint, 0, len(byDay))
	for _, p := range byDay {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}

// SizeDistributions computes F4: empirical CDFs of advertised sizes for
// malicious and clean downloadable responses.
func SizeDistributions(tr *dataset.Trace, nw dataset.Network) (malicious, clean *stats.CDF) {
	malicious, clean = stats.NewCDF(), stats.NewCDF()
	for _, r := range tr.Records {
		if r.Network != nw || !r.Downloadable || !r.Downloaded {
			continue
		}
		if r.Malicious() {
			malicious.Add(float64(r.Size))
		} else {
			clean.Add(float64(r.Size))
		}
	}
	return malicious, clean
}

// DistinctMaliciousSizes returns the number of distinct advertised sizes
// among malicious responses — the quantity that makes size-based filtering
// viable (it is tiny relative to response volume).
func DistinctMaliciousSizes(tr *dataset.Trace, nw dataset.Network) int {
	sizes := make(map[int64]bool)
	for _, r := range tr.Records {
		if r.Network == nw && r.Malicious() {
			sizes[r.Size] = true
		}
	}
	return len(sizes)
}

// SizeLie summarizes advertised-vs-true size mismatches among downloaded
// responses — the "fake file" phenomenon: decoys advertise enticing sizes
// but deliver different content.
type SizeLie struct {
	// Downloads is the number of downloaded responses considered.
	Downloads int
	// Lies counts downloads whose body size differs from the advertised
	// size.
	Lies int
	// Rate is Lies / Downloads.
	Rate float64
}

// SizeLieRate computes the fake-content exposure of a network's
// downloadable responses.
func SizeLieRate(tr *dataset.Trace, nw dataset.Network) SizeLie {
	var out SizeLie
	for _, r := range tr.Records {
		if r.Network != nw || !r.Downloaded {
			continue
		}
		out.Downloads++
		if r.BodySize != r.Size {
			out.Lies++
		}
	}
	if out.Downloads > 0 {
		out.Rate = float64(out.Lies) / float64(out.Downloads)
	}
	return out
}

// Gini computes the Gini coefficient of a set of non-negative counts — 0
// for perfectly even distribution, approaching 1 when one entry holds all
// the mass. The report uses it to summarize host- and family-concentration
// in one number per network.
func Gini(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Ints(sorted)
	var total, weighted float64
	for i, c := range sorted {
		if c < 0 {
			c = 0
		}
		total += float64(c)
		weighted += float64(i+1) * float64(c)
	}
	if total == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted - (n+1)*total) / (n * total)
}

// HostGini returns the Gini coefficient of malicious responses across
// serving hosts: LimeWire's echo cohort spreads volume (low Gini) while
// OpenFT's superspreader concentrates it (high Gini).
func HostGini(tr *dataset.Trace, nw dataset.Network) float64 {
	hosts := HostConcentration(tr, nw, "")
	counts := make([]int, len(hosts))
	for i, h := range hosts {
		counts[i] = h.Count
	}
	return Gini(counts)
}

// CategoryRate is one row of T6.
type CategoryRate struct {
	// Category is the query category.
	Category string
	// Responses and Downloadable count the category's response volumes.
	Responses    int
	Downloadable int
	// Malicious counts malware-labelled downloadable responses.
	Malicious int
	// MaliciousShare is Malicious over downloaded-and-labelled responses.
	MaliciousShare float64
}

// QueryCategoryRates computes T6: per-query-category malware exposure,
// sorted by descending malicious share.
func QueryCategoryRates(tr *dataset.Trace, nw dataset.Network) []CategoryRate {
	byCat := make(map[string]*CategoryRate)
	labelled := make(map[string]int)
	for _, r := range tr.Records {
		if r.Network != nw {
			continue
		}
		c := byCat[r.QueryCategory]
		if c == nil {
			c = &CategoryRate{Category: r.QueryCategory}
			byCat[r.QueryCategory] = c
		}
		c.Responses++
		if r.Downloadable {
			c.Downloadable++
			if r.Downloaded {
				labelled[r.QueryCategory]++
				if r.Malicious() {
					c.Malicious++
				}
			}
		}
	}
	out := make([]CategoryRate, 0, len(byCat))
	for cat, c := range byCat {
		if labelled[cat] > 0 {
			c.MaliciousShare = float64(c.Malicious) / float64(labelled[cat])
		}
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaliciousShare != out[j].MaliciousShare {
			return out[i].MaliciousShare > out[j].MaliciousShare
		}
		return out[i].Category < out[j].Category
	})
	return out
}
