// Package stats provides the statistical primitives used across the
// measurement study: frequency counters with top-K extraction, empirical
// CDFs and percentiles, and deterministic random streams with a skewed
// (Zipf) sampler for reproducible simulations.
package stats

import (
	"math"
	"sort"
)

// Counter counts occurrences of string keys.
type Counter struct {
	counts map[string]int64
	total  int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int64)}
}

// Add increments key by n (n may be negative, but totals never go below 0
// per key).
func (c *Counter) Add(key string, n int64) {
	cur := c.counts[key]
	if cur+n < 0 {
		n = -cur
	}
	c.counts[key] = cur + n
	c.total += n
}

// Inc increments key by one.
func (c *Counter) Inc(key string) { c.Add(key, 1) }

// Get returns the count for key.
func (c *Counter) Get(key string) int64 { return c.counts[key] }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// Entry is a key with its count and share of the total.
type Entry struct {
	Key   string
	Count int64
	Share float64
}

// TopK returns the k highest-count entries in descending count order, ties
// broken by key for determinism. If k <= 0 or exceeds the number of keys,
// all entries are returned.
func (c *Counter) TopK(k int) []Entry {
	entries := make([]Entry, 0, len(c.counts))
	for key, n := range c.counts {
		var share float64
		if c.total > 0 {
			share = float64(n) / float64(c.total)
		}
		entries = append(entries, Entry{Key: key, Count: n, Share: share})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if k > 0 && k < len(entries) {
		entries = entries[:k]
	}
	return entries
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
	dirty  bool
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF { return &CDF{} }

// Add records a sample.
func (c *CDF) Add(v float64) {
	c.sorted = append(c.sorted, v)
	c.dirty = true
}

func (c *CDF) ensure() {
	if c.dirty {
		sort.Float64s(c.sorted)
		c.dirty = false
	}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the fraction of samples <= v.
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	c.ensure()
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank. It returns 0 for an empty CDF.
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	c.ensure()
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 100 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(c.sorted))))
	if rank < 1 {
		rank = 1
	}
	return c.sorted[rank-1]
}
