// Package filtersvc productionizes the paper's size-based filter
// (internal/filter) as a high-QPS service core: the block list the batch
// library trains offline becomes a versioned, immutable Snapshot that a
// daemon swaps atomically under live traffic while readers keep checking
// verdicts without ever taking a lock.
//
// The design has two halves:
//
//   - Snapshot is the read side: an immutable lookup structure built once
//     per update. Exact-size membership is served by hash shards (a
//     Fibonacci-multiplicative hash spreads sizes over power-of-two
//     buckets, each a short ascending slice probed by binary search), and
//     the ±tolerance band is served by one binary search over the full
//     ascending block list — the same decision procedure as
//     filter.SizeFilter.Blocks, so a snapshot built from a trained
//     filter's Sizes() can never disagree with it (the differential tests
//     prove the parity on randomized traces).
//
//   - Service is the write side: it owns the master block list behind a
//     mutex, and every mutation (Add, Remove, SetTolerance, Replace)
//     builds a fresh Snapshot with the next version number and publishes
//     it with one atomic pointer store. Readers pin a snapshot with a
//     single atomic load; a reader that pinned version N observes exactly
//     version N's block list for as long as it holds the pointer, no
//     matter how many updates land meanwhile. Snapshots are never mutated
//     after Store — that is the whole ownership contract (see DESIGN.md,
//     "Filter snapshots: immutable versions behind an atomic pointer").
//
// The package also implements the daemon's two wire surfaces — an HTTP
// check/update API (http.go) and a newline-delimited line protocol for
// bulk checks (line.go) — both instrumented through internal/obs.
// cmd/filterd binds them to listeners; cmd/p2pstudy can stream a finished
// study's trained block list into a running daemon.
package filtersvc

import (
	"sort"
	"sync"
	"sync/atomic"

	"p2pmalware/internal/obs"
)

// fibMul is the 64-bit Fibonacci hashing constant (2^64 / golden ratio);
// multiplying by it and keeping high bits spreads consecutive and
// clustered sizes (malware sizes cluster tightly) evenly across shards.
const fibMul = 0x9e3779b97f4a7c15

// maxShards caps the exact-lookup shard count; beyond a few hundred
// buckets the per-shard slices are already a handful of entries and the
// extra pointer spread only costs cache locality.
const maxShards = 256

// Snapshot is one immutable version of the block list. All fields are
// written during construction and never after the snapshot is published;
// every method is safe for unsynchronized concurrent use.
type Snapshot struct {
	version   uint64
	tol       int64
	sorted    []int64   // full block list, ascending
	shards    [][]int64 // exact-size buckets, each ascending, sub-slices of one backing array
	shardMask uint64    // len(shards)-1; len(shards) is a power of two
}

// buildSnapshot constructs version v over sizes (ascending, deduplicated;
// copied, so the caller's master slice stays mutable).
func buildSnapshot(v uint64, sizes []int64, tolerance int64) *Snapshot {
	sorted := append([]int64(nil), sizes...)
	nsh := shardCount(len(sorted))
	s := &Snapshot{
		version:   v,
		tol:       tolerance,
		sorted:    sorted,
		shards:    make([][]int64, nsh),
		shardMask: uint64(nsh - 1),
	}
	counts := make([]int, nsh)
	for _, v := range sorted {
		counts[shardIndex(v, s.shardMask)]++
	}
	backing := make([]int64, len(sorted))
	next := make([]int, nsh)
	off := 0
	for i, c := range counts {
		s.shards[i] = backing[off : off : off+c]
		next[i] = off
		off += c
	}
	// sorted is ascending, so appending in order keeps each shard
	// ascending too.
	for _, v := range sorted {
		i := shardIndex(v, s.shardMask)
		backing[next[i]] = v
		next[i]++
		s.shards[i] = s.shards[i][:len(s.shards[i])+1]
	}
	return s
}

// shardCount picks a power-of-two shard count targeting ~8 entries per
// bucket, clamped to [1, maxShards].
func shardCount(n int) int {
	c := 1
	for c < maxShards && c*8 < n {
		c *= 2
	}
	return c
}

// shardIndex maps a size to its exact-lookup bucket.
//
// lint:hotpath
func shardIndex(size int64, mask uint64) uint64 {
	return (uint64(size) * fibMul >> 33) & mask
}

// searchInt64 returns the lowest index i with a[i] >= v (len(a) if none),
// an open-coded sort.Search: the closure sort.Search takes would both
// allocate and cost an indirect call per probe on the lookup hot path.
//
// lint:hotpath
func searchInt64(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Blocks reports whether a response advertising the given size would be
// filtered. It is the same decision procedure as filter.SizeFilter.Blocks
// — non-downloadable responses pass, tolerance 0 means exact membership,
// otherwise some blocked size must lie within ±tolerance — refactored
// onto the snapshot's lookup structures. Zero allocations, no locks.
//
// lint:hotpath
func (s *Snapshot) Blocks(size int64, downloadable bool) bool {
	if !downloadable {
		return false
	}
	if s.tol == 0 {
		b := s.shards[shardIndex(size, s.shardMask)]
		i := searchInt64(b, size)
		return i < len(b) && b[i] == size
	}
	i := searchInt64(s.sorted, size-s.tol)
	return i < len(s.sorted) && s.sorted[i] <= size+s.tol
}

// Version returns the snapshot's monotonically increasing version number
// (0 is the empty snapshot a fresh Service starts with).
func (s *Snapshot) Version() uint64 { return s.version }

// NumSizes returns the block-list length.
func (s *Snapshot) NumSizes() int { return len(s.sorted) }

// Sizes returns a copy of the block list in ascending order.
func (s *Snapshot) Sizes() []int64 { return append([]int64(nil), s.sorted...) }

// Service is the filter daemon's core: the mutable master block list plus
// the atomically published current Snapshot. The zero value is not usable
// — call New.
type Service struct {
	cur atomic.Pointer[Snapshot]

	mu        sync.Mutex
	sizes     []int64 // guarded by mu — master block list, ascending, deduplicated
	tolerance int64   // guarded by mu

	checks  *obs.Counter
	blocked *obs.Counter
	allowed *obs.Counter
	updates *obs.Counter
	version *obs.Gauge
	listLen *obs.Gauge
}

// New returns a Service with an empty version-0 snapshot installed,
// registering its metrics (filtersvc_checks_total,
// filtersvc_verdicts_total{verdict}, filtersvc_updates_total,
// filtersvc_snapshot_version, filtersvc_blocklist_sizes) against reg
// (nil means obs.Default).
func New(reg *obs.Registry) *Service {
	if reg == nil {
		reg = obs.Default
	}
	s := &Service{
		checks:  reg.Counter("filtersvc_checks_total"),
		blocked: reg.Counter("filtersvc_verdicts_total", "verdict", "block"),
		allowed: reg.Counter("filtersvc_verdicts_total", "verdict", "allow"),
		updates: reg.Counter("filtersvc_updates_total"),
		version: reg.Gauge("filtersvc_snapshot_version"),
		listLen: reg.Gauge("filtersvc_blocklist_sizes"),
	}
	s.cur.Store(buildSnapshot(0, nil, 0))
	return s
}

// Current pins the live snapshot: one atomic load, never nil. The caller
// may hold the pointer as long as it likes; the snapshot it pinned never
// changes underneath it.
//
// lint:hotpath
func (s *Service) Current() *Snapshot { return s.cur.Load() }

// Check evaluates one response against the live snapshot and counts the
// verdict. It is the service hot path: an atomic snapshot load, a
// sharded binary search, and three atomic counter adds — zero
// allocations, no locks (proven by TestCheckZeroAlloc and gated by
// BenchmarkFilterLookup in the benchdiff headline set).
//
// lint:hotpath
func (s *Service) Check(size int64, downloadable bool) bool {
	v := s.cur.Load().Blocks(size, downloadable)
	s.checks.Inc()
	if v {
		s.blocked.Inc()
	} else {
		s.allowed.Inc()
	}
	return v
}

// installLocked builds and publishes the next snapshot version from the
// master state. Caller holds s.mu.
func (s *Service) installLocked() uint64 {
	v := s.cur.Load().version + 1
	s.cur.Store(buildSnapshot(v, s.sizes, s.tolerance))
	s.updates.Inc()
	s.version.Set(int64(v))
	s.listLen.Set(int64(len(s.sizes)))
	return v
}

// Add inserts sizes into the block list (duplicates are no-ops) and
// publishes a new snapshot version, returned to the caller. This is the
// streaming-update entry point: a running study pushes newly observed
// (malware, size) pairs here one batch at a time.
func (s *Service) Add(sizes ...int64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sizes = mergeSizes(s.sizes, sizes)
	return s.installLocked()
}

// Remove deletes sizes from the block list (absent sizes are no-ops) and
// publishes a new snapshot version.
func (s *Service) Remove(sizes ...int64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(sizes)
	return s.installLocked()
}

// removeLocked filters sizes out of the master list. Caller holds s.mu.
func (s *Service) removeLocked(sizes []int64) {
	drop := make(map[int64]bool, len(sizes))
	for _, v := range sizes {
		drop[v] = true
	}
	kept := s.sizes[:0]
	for _, v := range s.sizes {
		if !drop[v] {
			kept = append(kept, v)
		}
	}
	s.sizes = kept
}

// SetTolerance changes the matching tolerance and publishes a new
// snapshot version.
func (s *Service) SetTolerance(tolerance int64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tolerance = tolerance
	return s.installLocked()
}

// Replace swaps in a whole new block list and tolerance — the bulk-load
// path for a freshly trained filter (filter.SizeFilter.Sizes() feeds
// straight in) — and publishes a new snapshot version.
func (s *Service) Replace(sizes []int64, tolerance int64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sizes = mergeSizes(nil, sizes)
	s.tolerance = tolerance
	return s.installLocked()
}

// mergeSizes merges add into the ascending deduplicated list base,
// returning the (possibly reallocated) result. The update path is cold
// relative to lookups, so a full re-sort keeps the invariant simple.
func mergeSizes(base []int64, add []int64) []int64 {
	out := append(base, add...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Stats is a point-in-time service summary for the HTTP status endpoint
// and tests.
type Stats struct {
	// Version and Sizes describe the live snapshot.
	Version   uint64 `json:"version"`
	Sizes     int    `json:"sizes"`
	Tolerance int64  `json:"tolerance"`
	// Checks, Blocked and Allowed are the lifetime verdict counters.
	Checks  int64 `json:"checks"`
	Blocked int64 `json:"blocked"`
	Allowed int64 `json:"allowed"`
	// Updates counts published snapshot versions (excluding version 0).
	Updates int64 `json:"updates"`
}

// Stats returns the current counters and snapshot coordinates.
func (s *Service) Stats() Stats {
	snap := s.cur.Load()
	return Stats{
		Version:   snap.version,
		Sizes:     len(snap.sorted),
		Tolerance: snap.tol,
		Checks:    s.checks.Value(),
		Blocked:   s.blocked.Value(),
		Allowed:   s.allowed.Value(),
		Updates:   s.updates.Value(),
	}
}
