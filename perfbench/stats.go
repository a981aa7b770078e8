package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every metric is reported: its median, its quartiles and
// the number of samples behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// same rule the benchmark's spread is judged by.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: m}
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tail reports the p-th percentile of xs as a metric; its quartiles are
// the percentile itself, and N is the sample count behind it.
func tail(xs []float64, p float64) summary {
	v := percentile(xs, p)
	return summary{Median: v, Q1: v, Q3: v, N: len(xs)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
