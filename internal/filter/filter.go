// Package filter implements the response filters the paper compares:
//
//   - the paper's proposed size-based filter: block query responses whose
//     advertised size exactly matches one of the most commonly seen sizes
//     of the most popular malware (>99% detection, near-zero false
//     positives);
//   - a model of LimeWire's built-in mechanisms circa 2006 (blocking a
//     list of dangerous filename extensions plus a small known-hash list),
//     which the paper found to catch only ~6% of malware responses;
//   - an exact content-hash filter baseline, which detects only content
//     seen during training.
//
// Filters operate on trace records so they can be trained on one portion
// of a trace and evaluated on another.
package filter

import (
	"sort"
	"strings"
	"time"

	"p2pmalware/internal/dataset"
)

// Filter is a response predicate: Blocks reports whether the response
// would be filtered out before reaching the user.
type Filter interface {
	// Name identifies the filter in reports.
	Name() string
	// Blocks reports whether the filter drops the response.
	Blocks(r *dataset.ResponseRecord) bool
}

// SizeFilter blocks responses whose advertised size is on its block list.
// The list is a sorted slice probed by binary search, so both the exact
// and the ±Tolerance paths cost O(log k) per response and evaluate
// deterministically. (The original map representation made the tolerance
// path an O(k) scan whose work order followed map range order.)
type SizeFilter struct {
	sizes []int64 // ascending, deduplicated
	// Tolerance widens matching to ±Tolerance bytes (0 = exact).
	// TestAblationsAndExtensions (cmd/p2panalyze) measures the
	// false-positive cost of widening, which EXPERIMENTS.md's ablation
	// table reports as row A2.
	Tolerance int64
}

// Name implements Filter.
func (f *SizeFilter) Name() string { return "size-based" }

// Blocks implements Filter. A response is blocked when some blocked size
// lies within ±Tolerance of its advertised size; with Tolerance 0 the
// binary search degenerates to exact membership.
func (f *SizeFilter) Blocks(r *dataset.ResponseRecord) bool {
	if !r.Downloadable {
		return false
	}
	i := sort.Search(len(f.sizes), func(j int) bool { return f.sizes[j] >= r.Size-f.Tolerance })
	return i < len(f.sizes) && f.sizes[i] <= r.Size+f.Tolerance
}

// NumSizes returns the block-list length.
func (f *SizeFilter) NumSizes() int { return len(f.sizes) }

// Sizes returns the block list in ascending order.
func (f *SizeFilter) Sizes() []int64 {
	return append([]int64(nil), f.sizes...)
}

// TrainSizeFilter builds the paper's filter from a training trace: rank
// the (size, count) pairs of malicious downloadable responses by count and
// block the k most common sizes. k <= 0 blocks every malicious size seen
// in training.
func TrainSizeFilter(train *dataset.Trace, nw dataset.Network, k int) *SizeFilter {
	counts := make(map[int64]int)
	for _, r := range train.Records {
		if r.Network == nw && r.Malicious() {
			counts[r.Size]++
		}
	}
	type sc struct {
		size  int64
		count int
	}
	ranked := make([]sc, 0, len(counts))
	for s, c := range counts {
		ranked = append(ranked, sc{s, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].size < ranked[j].size
	})
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	sizes := make([]int64, 0, len(ranked))
	for _, e := range ranked {
		sizes = append(sizes, e.size)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return &SizeFilter{sizes: sizes}
}

// BuiltinFilter models LimeWire's existing protection mechanisms: blocking
// responses with dangerous filename extensions (most notably .vbs) plus a
// small list of exactly-known content hashes.
type BuiltinFilter struct {
	// BlockedExtensions are filename suffixes dropped outright.
	BlockedExtensions []string
	// KnownHashes are content identities on the servent's static block
	// list.
	KnownHashes map[string]bool
}

// NewBuiltinFilter returns the 2006-era LimeWire defaults.
func NewBuiltinFilter() *BuiltinFilter {
	return &BuiltinFilter{
		BlockedExtensions: []string{".vbs", ".htm", ".html", ".wmf"},
		KnownHashes:       map[string]bool{},
	}
}

// Name implements Filter.
func (f *BuiltinFilter) Name() string { return "limewire-builtin" }

// Blocks implements Filter.
func (f *BuiltinFilter) Blocks(r *dataset.ResponseRecord) bool {
	lower := strings.ToLower(r.Filename)
	for _, ext := range f.BlockedExtensions {
		if strings.HasSuffix(lower, ext) {
			return true
		}
	}
	if r.BodyHash != "" && f.KnownHashes[r.BodyHash] {
		return true
	}
	return false
}

// HashFilter blocks responses whose downloaded content hash was seen as
// malware in training — the exact-match baseline that cannot generalize
// to sources it has not downloaded from.
type HashFilter struct {
	hashes map[string]bool
}

// Name implements Filter.
func (f *HashFilter) Name() string { return "content-hash" }

// Blocks implements Filter.
func (f *HashFilter) Blocks(r *dataset.ResponseRecord) bool {
	return r.BodyHash != "" && f.hashes[r.BodyHash]
}

// TrainHashFilter collects the content hashes of malicious downloads in
// the training trace.
func TrainHashFilter(train *dataset.Trace, nw dataset.Network) *HashFilter {
	f := &HashFilter{hashes: make(map[string]bool)}
	for _, r := range train.Records {
		if r.Network == nw && r.Malicious() && r.BodyHash != "" {
			f.hashes[r.BodyHash] = true
		}
	}
	return f
}

// Union blocks a response when any member filter blocks it — e.g. the
// deployable combination of a servent's built-in mechanisms plus the
// size-based filter.
type Union struct {
	// Filters are the member filters, evaluated in order.
	Filters []Filter
}

// Name implements Filter.
func (u *Union) Name() string {
	name := "union("
	for i, f := range u.Filters {
		if i > 0 {
			name += "+"
		}
		name += f.Name()
	}
	return name + ")"
}

// Blocks implements Filter.
func (u *Union) Blocks(r *dataset.ResponseRecord) bool {
	for _, f := range u.Filters {
		if f.Blocks(r) {
			return true
		}
	}
	return false
}

// Result is a filter's confusion summary over an evaluation trace (T5).
type Result struct {
	// Filter is the filter name.
	Filter string
	// Malicious and Clean are the labelled downloadable response counts.
	Malicious int
	Clean     int
	// Detected counts malicious responses the filter blocked.
	Detected int
	// FalsePositives counts clean responses the filter blocked.
	FalsePositives int
	// DetectionRate is Detected / Malicious.
	DetectionRate float64
	// FalsePositiveRate is FalsePositives / Clean.
	FalsePositiveRate float64
}

// Evaluate runs a filter over the labelled downloadable responses of a
// trace and returns its confusion summary. Only downloaded (and thus
// ground-truth-labelled) responses are scored.
func Evaluate(f Filter, eval *dataset.Trace, nw dataset.Network) Result {
	res := Result{Filter: f.Name()}
	for i := range eval.Records {
		r := &eval.Records[i]
		if r.Network != nw || !r.Downloadable || !r.Downloaded {
			continue
		}
		blocked := f.Blocks(r)
		if r.Malicious() {
			res.Malicious++
			if blocked {
				res.Detected++
			}
		} else {
			res.Clean++
			if blocked {
				res.FalsePositives++
			}
		}
	}
	if res.Malicious > 0 {
		res.DetectionRate = float64(res.Detected) / float64(res.Malicious)
	}
	if res.Clean > 0 {
		res.FalsePositiveRate = float64(res.FalsePositives) / float64(res.Clean)
	}
	return res
}

// FamilyDetection is one family's detection rate under a filter.
type FamilyDetection struct {
	// Family is the malware family.
	Family string
	// Total and Detected count the family's labelled responses.
	Total    int
	Detected int
	// Rate is Detected / Total.
	Rate float64
}

// PerFamilyDetection breaks a filter's detection down by malware family —
// the diagnostic that shows which families a size block-list misses.
// Results are sorted by descending total.
func PerFamilyDetection(f Filter, eval *dataset.Trace, nw dataset.Network) []FamilyDetection {
	type agg struct{ total, detected int }
	byFam := make(map[string]*agg)
	for i := range eval.Records {
		r := &eval.Records[i]
		if r.Network != nw || !r.Downloadable || !r.Downloaded || !r.Malicious() {
			continue
		}
		a := byFam[r.Malware]
		if a == nil {
			a = &agg{}
			byFam[r.Malware] = a
		}
		a.total++
		if f.Blocks(r) {
			a.detected++
		}
	}
	out := make([]FamilyDetection, 0, len(byFam))
	for fam, a := range byFam {
		out = append(out, FamilyDetection{
			Family: fam, Total: a.total, Detected: a.detected,
			Rate: float64(a.detected) / float64(a.total),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Family < out[j].Family
	})
	return out
}

// SweepPoint is one point of F5: filter size k versus detection and
// false-positive rates.
type SweepPoint struct {
	K int
	Result
}

// SweepSizeFilter evaluates size filters of increasing block-list length,
// trained and evaluated on the given traces (F5).
func SweepSizeFilter(train, eval *dataset.Trace, nw dataset.Network, ks []int) []SweepPoint {
	out := make([]SweepPoint, 0, len(ks))
	for _, k := range ks {
		f := TrainSizeFilter(train, nw, k)
		out = append(out, SweepPoint{K: k, Result: Evaluate(f, eval, nw)})
	}
	return out
}

// SplitTrace divides a trace into train/eval portions at the given
// fraction of its duration — e.g. train on the first week, evaluate on the
// rest, as a deployed filter would.
func SplitTrace(tr *dataset.Trace, frac float64) (train, eval *dataset.Trace) {
	train, eval = dataset.NewTrace(), dataset.NewTrace()
	if len(tr.Records) == 0 {
		return train, eval
	}
	cut := tr.Start.Add(time.Duration(frac * float64(tr.End.Sub(tr.Start))))
	for _, r := range tr.Records {
		if r.Time.Before(cut) {
			train.Add(r)
		} else {
			eval.Add(r)
		}
	}
	for nw, n := range tr.QueriesSent {
		// Apportion query counts by the same fraction.
		train.QueriesSent[nw] = int(frac * float64(n))
		eval.QueriesSent[nw] = n - train.QueriesSent[nw]
	}
	return train, eval
}
