package stats

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(1, 2)
	b := NewRNG(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(1, 3)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(1, 2).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatal("different-seed RNGs look identical")
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(7, 7)
	n, trues := 10000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			trues++
		}
	}
	got := float64(trues) / float64(n)
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("Bool(0.25) rate = %v", got)
	}
	if g.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestRNGFillDeterministic(t *testing.T) {
	a, b := NewRNG(5, 5), NewRNG(5, 5)
	pa, pb := make([]byte, 37), make([]byte, 37)
	if n, err := a.Fill(pa); n != 37 || err != nil {
		t.Fatalf("Fill = %d, %v", n, err)
	}
	b.Fill(pb)
	if string(pa) != string(pb) {
		t.Fatal("Fill not deterministic")
	}
	var zeros int
	for _, v := range pa {
		if v == 0 {
			zeros++
		}
	}
	if zeros > 10 {
		t.Fatal("Fill output suspiciously zero-heavy")
	}
}

// fillPerByte is Fill as it was before it stored whole words: one
// interface draw per 8 bytes, each byte stored on its own.
func fillPerByte(r *rand.Rand, p []byte) {
	for i := 0; i < len(p); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
}

// TestRNGFillMatchesPerByteLoop holds Fill to the bytes and the stream
// position of the per-byte loop it replaced, for every length up to 300
// (every tail length, many times over). Draws between fills check that
// Fill consumes exactly the words the old loop did.
func TestRNGFillMatchesPerByteLoop(t *testing.T) {
	got := NewRNG(21, 34)
	want := rand.New(rand.NewPCG(21, 34))
	for n := 0; n <= 300; n++ {
		pg, pw := make([]byte, n), make([]byte, n)
		if m, err := got.Fill(pg); m != n || err != nil {
			t.Fatalf("Fill(%d bytes) = %d, %v", n, m, err)
		}
		fillPerByte(want, pw)
		if !bytes.Equal(pg, pw) {
			t.Fatalf("length %d: Fill = %x, per-byte loop = %x", n, pg, pw)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("after a %d-byte fill: Uint64 = %d, want %d", n, g, w)
		}
		if g, w := got.IntN(n+1), want.IntN(n+1); g != w {
			t.Fatalf("after a %d-byte fill: IntN = %d, want %d", n, g, w)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(11, 13)
	z := NewZipf(g, 1.0, 100)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[50] {
		t.Fatalf("Zipf not monotone-skewed: c0=%d c10=%d c50=%d", counts[0], counts[10], counts[50])
	}
	// Rank 0 should hold roughly 1/H(100) ~ 19% of mass for s=1.
	share := float64(counts[0]) / n
	if share < 0.15 || share > 0.25 {
		t.Fatalf("rank-0 share = %v, want ~0.19", share)
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	z := NewZipf(NewRNG(1, 1), 1.2, 50)
	var sum float64
	for i := 0; i < 50; i++ {
		sum += z.PMF(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sum = %v", sum)
	}
	if z.PMF(-1) != 0 || z.PMF(50) != 0 {
		t.Fatal("out-of-range PMF not zero")
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewZipf(NewRNG(1, 1), 1, 0)
}
