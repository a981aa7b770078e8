package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc("a")
	c.Inc("a")
	c.Add("b", 3)
	if c.Get("a") != 2 || c.Get("b") != 3 || c.Get("missing") != 0 {
		t.Fatalf("counts wrong: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	if top := c.TopK(1); top[0].Key != "b" || math.Abs(top[0].Share-0.6) > 1e-9 {
		t.Fatalf("TopK(1) = %+v, want b with share 3/5", top)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCounterNegativeClamps(t *testing.T) {
	c := NewCounter()
	c.Add("a", 2)
	c.Add("a", -5)
	if c.Get("a") != 0 {
		t.Fatalf("count went negative: %d", c.Get("a"))
	}
	// The clamp leaves a's 2 out of the total, so b holds all of it.
	c.Inc("b")
	if top := c.TopK(1); top[0].Key != "b" || top[0].Share != 1 {
		t.Fatalf("TopK(1) = %+v, want b with share 1", top)
	}
}

func TestTopKOrderingAndShares(t *testing.T) {
	c := NewCounter()
	c.Add("x", 50)
	c.Add("y", 30)
	c.Add("z", 20)
	top := c.TopK(2)
	if len(top) != 2 {
		t.Fatalf("TopK(2) len = %d", len(top))
	}
	if top[0].Key != "x" || top[1].Key != "y" {
		t.Fatalf("TopK order wrong: %+v", top)
	}
	if math.Abs(top[0].Share-0.5) > 1e-9 {
		t.Fatalf("share wrong: %v", top[0].Share)
	}
	if got := top[0].Share + top[1].Share; math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("top-2 share = %v, want 0.8", got)
	}
}

func TestTopKTieBreakDeterministic(t *testing.T) {
	c := NewCounter()
	c.Add("b", 5)
	c.Add("a", 5)
	c.Add("c", 5)
	top := c.TopK(0)
	if top[0].Key != "a" || top[1].Key != "b" || top[2].Key != "c" {
		t.Fatalf("tie break not by key: %+v", top)
	}
}

func TestTopKAllWhenKTooBig(t *testing.T) {
	c := NewCounter()
	c.Inc("only")
	if got := len(c.TopK(10)); got != 1 {
		t.Fatalf("TopK(10) len = %d", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.At(50); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("At(50) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(100); got != 1 {
		t.Fatalf("At(100) = %v", got)
	}
	if got := c.Percentile(50); got != 50 {
		t.Fatalf("P50 = %v", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := c.Percentile(100); got != 100 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF()
	if c.At(5) != 0 || c.Percentile(50) != 0 {
		t.Fatal("empty CDF not zero-valued")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(vals []float64, probe float64) bool {
		c := NewCDF()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			c.Add(v)
		}
		if math.IsNaN(probe) || math.IsInf(probe, 0) {
			return true
		}
		return c.At(probe) <= c.At(probe+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
