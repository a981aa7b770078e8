package stats

import (
	"fmt"
	"testing"
)

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(NewRNG(1, 1), 1.0, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

func BenchmarkCounterTopK(b *testing.B) {
	c := NewCounter()
	rng := NewRNG(2, 2)
	for i := 0; i < 1000; i++ {
		c.Add(fmt.Sprintf("key-%d", i), int64(rng.IntN(10000)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.TopK(10)
	}
}

func BenchmarkCDFPercentile(b *testing.B) {
	c := NewCDF()
	rng := NewRNG(3, 3)
	for i := 0; i < 100000; i++ {
		c.Add(rng.Float64() * 1e6)
	}
	c.Percentile(50) // force the initial sort
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Percentile(99)
	}
}

// BenchmarkRNGFill fills one honest-body-sized buffer: netsim builds
// every downloadable honest file, 40–245 KiB, this way each time it is
// served.
func BenchmarkRNGFill(b *testing.B) {
	g := NewRNG(4, 4)
	buf := make([]byte, 160<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fill(buf)
	}
}
