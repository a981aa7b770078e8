package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random stream for simulations. All simulation
// randomness must flow through explicitly seeded RNGs so that every
// experiment is exactly reproducible.
type RNG struct {
	r *rand.Rand
	// pcg is r's source, kept concrete so Fill draws words without an
	// interface call; both advance the one stream.
	pcg *rand.PCG
}

// NewRNG returns a deterministic RNG seeded from the two words. Distinct
// simulation components should use distinct second words so their streams
// are independent.
func NewRNG(seed1, seed2 uint64) *RNG {
	pcg := rand.NewPCG(seed1, seed2)
	return &RNG{r: rand.New(pcg), pcg: pcg}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0,n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Int64N returns a uniform value in [0,n). It panics if n <= 0.
func (g *RNG) Int64N(n int64) int64 { return g.r.Int64N(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Fill fills p with pseudo-random bytes (for deterministic GUIDs and file
// content) and reports (len(p), nil) so it can serve as an io.Reader-style
// read function. Each 8-byte word is one Uint64 draw stored little-endian;
// a short tail takes the low bytes of one more draw.
func (g *RNG) Fill(p []byte) (int, error) {
	n := len(p)
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, g.pcg.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		v := g.pcg.Uint64()
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
	}
	return n, nil
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It is the workhorse behind query popularity and malware
// prevalence skew.
type Zipf struct {
	cum []float64
	rng *RNG
}

// NewZipf returns a Zipf sampler over n ranks with exponent s > 0.
// It panics if n <= 0 or s <= 0, which are programming errors.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 || s <= 0 {
		panic("stats: NewZipf needs n > 0 and s > 0")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, rng: rng}
}

// Next draws a rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PMF returns the probability of rank i under the sampler's distribution.
func (z *Zipf) PMF(i int) float64 {
	if i < 0 || i >= len(z.cum) {
		return 0
	}
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}
