package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistrySharesHandles(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a := r.Counter("x_total", "net", "a")
	b := r.Counter("x_total", "net", "a")
	if a != b {
		t.Fatal("same name+labels must resolve to the same counter")
	}
	if c := r.Counter("x_total", "net", "b"); c == a {
		t.Fatal("different labels must resolve to different counters")
	}
	// Label order must not matter.
	g1 := r.Gauge("g", "k1", "v1", "k2", "v2")
	g2 := r.Gauge("g", "k2", "v2", "k1", "v1")
	if g1 != g2 {
		t.Fatal("label order must not change identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering m as a gauge after counter")
		}
	}()
	r.Gauge("m")
}

func TestSnapshotValues(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("reqs_total", "net", "g")
	c.Add(41)
	c.Inc()
	g := r.Gauge("conns", "net", "g")
	g.Set(7)
	g.Dec()
	h := r.Histogram("lat_us", []int64{10, 100}, "net", "g")
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	s := r.Snapshot()
	if got := s.Counter("reqs_total", "net", "g"); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if got := s.Gauge("conns", "net", "g"); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	hs := s.Histograms[`lat_us{net="g"}`]
	if hs.Count != 3 || hs.Sum != 5055 {
		t.Fatalf("histogram count/sum = %d/%d, want 3/5055", hs.Count, hs.Sum)
	}
	want := []int64{1, 1, 1}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	t.Parallel()
	// Run with -race: many goroutines hammering shared handles and
	// registering overlapping metrics must be safe, and counts exact.
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("stress_total", "shard", "s")
			h := r.Histogram("stress_us", nil, "shard", "s")
			g := r.Gauge("stress_level")
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(int64(j % 7000))
				g.Inc()
				g.Dec()
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("stress_total", "shard", "s"); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Histograms[`stress_us{shard="s"}`].Count; got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauge("stress_level"); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestHotPathAllocatesNothing(t *testing.T) {
	// The per-message instrumentation budget is zero allocations; a single
	// alloc on Counter.Inc would show up millions of times per study.
	r := NewRegistry()
	c := r.Counter("alloc_total")
	g := r.Gauge("alloc_gauge")
	h := r.Histogram("alloc_us", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(9) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1234) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call, want 0", n)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("reqs_total", "net", "g").Add(3)
	r.Gauge("conns").Set(2)
	h := r.Histogram("lat_us", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{net="g"} 3`,
		"# TYPE conns gauge",
		"conns 2",
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="10"} 1`,
		`lat_us_bucket{le="100"} 2`,
		`lat_us_bucket{le="+Inf"} 3`,
		"lat_us_sum 5055",
		"lat_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
