package bufpool

import (
	"sync"

	"p2pmalware/internal/obs"
)

// Slabs back file bodies: every lazily generated body a servent serves and
// every body a transfer downloads, which its one user hands back once it
// has written, hashed or scanned it. The smallest bodies a universe serves
// are fake files of 2–6 KiB and the smallest malware specimen (about
// 4 KiB), which the 8 KiB class holds; honest bodies start at 40 KiB.
//
// The pools store *[N]byte pointers, not []byte headers: a slice stored in
// an interface allocates its header on every Put, which would put an
// allocation back on the very path the slabs exist to clear.

const (
	slab8K   = 8 << 10
	slab64K  = 64 << 10
	slab128K = 128 << 10
	slab256K = 256 << 10
	slab512K = 512 << 10
	// slabMax is the largest class. It holds the largest specimen of
	// either malware catalog (about 400 KiB); a longer request is a plain
	// allocation.
	slabMax = slab512K
)

var (
	slabNew = obs.C("p2p_bufpool_new_total", "kind", "slab")

	slab8KPool   = sync.Pool{New: func() any { slabNew.Inc(); return new([slab8K]byte) }}
	slab64KPool  = sync.Pool{New: func() any { slabNew.Inc(); return new([slab64K]byte) }}
	slab128KPool = sync.Pool{New: func() any { slabNew.Inc(); return new([slab128K]byte) }}
	slab256KPool = sync.Pool{New: func() any { slabNew.Inc(); return new([slab256K]byte) }}
	slab512KPool = sync.Pool{New: func() any { slabNew.Inc(); return new([slab512K]byte) }}
)

// GetSlab returns a byte slice of length n drawn from the smallest pooled
// size class that fits. Requests beyond the largest class fall back to a
// plain allocation, which PutSlab later discards. The returned slice is
// uninitialized — callers overwrite it before reading. n is an allocation
// size: a length a peer sent must be clamped before it gets here.
//
// lint:hotpath
func GetSlab(n int) []byte {
	switch {
	case n <= slab8K:
		return slab8KPool.Get().(*[slab8K]byte)[:n]
	case n <= slab64K:
		return slab64KPool.Get().(*[slab64K]byte)[:n]
	case n <= slab128K:
		return slab128KPool.Get().(*[slab128K]byte)[:n]
	case n <= slab256K:
		return slab256KPool.Get().(*[slab256K]byte)[:n]
	case n <= slab512K:
		return slab512KPool.Get().(*[slab512K]byte)[:n]
	default:
		return make([]byte, n)
	}
}

// PutSlab recycles a slab obtained from GetSlab. The caller must not touch
// the slice afterwards, and nothing else may hold it: a slab is handed back
// by its one user. Slices whose capacity is not an exact class size —
// oversized fallbacks, or slabs regrown by append — are dropped for the
// garbage collector instead; recycling through PutSlab is an optimization,
// never a correctness requirement.
//
// lint:hotpath
func PutSlab(b []byte) {
	b = b[:cap(b)]
	switch cap(b) {
	case slab8K:
		slab8KPool.Put((*[slab8K]byte)(b))
	case slab64K:
		slab64KPool.Put((*[slab64K]byte)(b))
	case slab128K:
		slab128KPool.Put((*[slab128K]byte)(b))
	case slab256K:
		slab256KPool.Put((*[slab256K]byte)(b))
	case slab512K:
		slab512KPool.Put((*[slab512K]byte)(b))
	}
}
