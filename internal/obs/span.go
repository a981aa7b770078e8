package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pmalware/internal/simclock"
)

// Deterministic span tracing.
//
// A Span is one finished unit of pipeline work — a whole query, one of its
// stages (collect, fetch-queue wait, fetch, scan, commit hold), or a single
// transfer attempt. Span identity is a pure function of
// (scope, seq, stage, attempt): no randomness, no wall clock, no global
// counters feed the ID, so two same-seed runs — at any worker count — name
// every span identically and the serialized span stream diffs byte for
// byte in the golden-trace gate.
//
// Timestamps on a span are virtual trace time: the owning query's
// scheduled instant, stamped by the committer, or the boundary's instant
// for day-boundary spans. Wall-clock durations are real measurements and
// therefore nondeterministic; they are recorded only when the recorder is
// built with wall timing enabled, and the deterministic stream omits them
// entirely.
// BackoffUS is the exception: retry backoff comes from a PRF keyed by
// (seed, fetch key, attempt), so it is reproducible and always kept.

// Canonical stage names shared by the study engine and the critical-path
// analyzer (cmd/p2pprof). The six partition stages (everything except
// StageQuery, StageScan, StageAttempt and the day-boundary StageCircuit
// and StageChurn) tile a query's end-to-end wall time exactly: their
// durations are cut from the same clock stamps, so they sum to the root
// span.
const (
	StageQuery       = "query"        // root: submit -> commit finished
	StageCollectWait = "collect_wait" // submit -> collector pickup
	StageCollect     = "collect"      // flood to completion + sort
	StageFetchWait   = "fetch_wait"   // collect done -> fetch worker pickup
	StageFetch       = "fetch"        // download + scan service time
	StageScan        = "scan"         // scanner time within fetch (child of fetch)
	StageCommitHold  = "commit_hold"  // fetch done -> committer reaches the task
	StageCommit      = "commit"       // record append in commit order
	StageAttempt     = "attempt"      // one transfer attempt (child of fetch)
	StageCircuit     = "circuit"      // circuit-breaker epoch transition
	StageChurn       = "churn"        // day-boundary churn: hosts replaced
)

// SpanID names one span. It is derived, never drawn: see DeriveSpanID.
type SpanID uint64

// fnv64Offset and fnv64Prime are the FNV-1a constants; the hash is inlined
// so deriving an ID performs no allocation on the span hot path.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// DeriveSpanID derives the deterministic identity of a span from its
// coordinates. The tuple is hashed field-by-field with separators, so
// ("lw", 1, "fetch") and ("lw", 11, "etch") cannot collide by
// concatenation.
//
// lint:hotpath
func DeriveSpanID(scope string, seq int64, stage string, attempt int32) SpanID {
	h := uint64(fnv64Offset)
	for i := 0; i < len(scope); i++ {
		h = (h ^ uint64(scope[i])) * fnv64Prime
	}
	h = (h ^ 0xFF) * fnv64Prime
	for i := 0; i < 8; i++ {
		h = (h ^ (uint64(seq)>>(8*i))&0xFF) * fnv64Prime
	}
	h = (h ^ 0xFF) * fnv64Prime
	for i := 0; i < len(stage); i++ {
		h = (h ^ uint64(stage[i])) * fnv64Prime
	}
	h = (h ^ 0xFF) * fnv64Prime
	for i := 0; i < 4; i++ {
		h = (h ^ (uint64(uint32(attempt))>>(8*i))&0xFF) * fnv64Prime
	}
	return SpanID(h)
}

// Span is one finished unit of traced work. The zero value of every
// optional field (Attempt, Retry, BackoffUS, Fate, Detail, Parent) is
// omitted from the serialized form; WallUS < 0 means "wall timing not
// recorded" and is likewise omitted, keeping the deterministic stream free
// of wall-clock bytes.
type Span struct {
	// Time is the owning query's virtual trace timestamp — never a wall
	// clock reading.
	Time time.Time
	// Scope is the emitting network ("limewire", "openft").
	Scope string
	// Seq is the query sequence number (or the virtual day for the
	// day-boundary spans StageCircuit and StageChurn).
	Seq int64
	// Stage names the unit of work; see the Stage* constants.
	Stage string
	// Attempt distinguishes sibling spans of the same stage within one
	// query (transfer attempts number 1..N; stage spans use 0).
	Attempt int32
	// Retry is the attempt's 1-based position within its own retry loop
	// (an alternate source restarts at 1 while Attempt keeps counting).
	Retry int32
	// ID and Parent link the span into its query tree. A zero Parent
	// marks a root.
	ID     SpanID
	Parent SpanID
	// BackoffUS is the deterministic (PRF-drawn) backoff slept after a
	// retryable failure, in microseconds.
	BackoffUS int64
	// WallUS is the measured wall-clock duration in microseconds, or -1
	// when the recorder runs in deterministic mode.
	WallUS int64
	// Fate is a stable outcome token ("ok", "refused", "timeout", ...);
	// see p2p.FateOf.
	Fate string
	// Detail is a short deterministic annotation (e.g. the source
	// endpoint of a transfer attempt, or a day-boundary span's counts such
	// as "replaced=3").
	Detail string

	// emit orders spans emitted by one recorder; the per-scope emission
	// order is deterministic (the committer emits in commit order), so it
	// is safe to use as the final merge tie-break.
	emit uint64
}

// SpanStart is the begin token of an in-flight span: a plain value, so
// beginning a span allocates nothing.
type SpanStart struct {
	at time.Time
}

// SpanRecorder collects finished spans for one scope. A nil recorder is
// valid and drops every span. SpanRecorder is safe for concurrent use,
// but byte-identical streams additionally require that emission order be
// deterministic — the study engine guarantees that by emitting spans from
// the single committer goroutine in commit order (and from the clock
// goroutine behind a pipeline barrier for day-boundary spans).
type SpanRecorder struct {
	scope string
	clock simclock.Clock
	wall  bool

	mu      sync.Mutex
	emitSeq uint64 // guarded by mu
	spans   []Span // guarded by mu
}

// spanChunk is the recorder's initial capacity: large enough that steady
// traffic appends without growing (the begin/end fast path stays
// zero-alloc), small enough to be free for short runs.
const spanChunk = 1024

// NewSpanRecorder returns a recorder stamping every span with scope. wall
// selects wall-duration recording: false (the default for studies) keeps
// the stream deterministic; true annotates spans with measured WallUS for
// critical-path profiling. clock is the wall-time source for Begin/End
// measurements (nil means the real clock); it never feeds Span.Time.
func NewSpanRecorder(scope string, clock simclock.Clock, wall bool) *SpanRecorder {
	return &SpanRecorder{
		scope: scope,
		clock: simclock.OrReal(clock),
		wall:  wall,
		spans: make([]Span, 0, spanChunk),
	}
}

// Wall reports whether the recorder annotates spans with wall durations.
func (r *SpanRecorder) Wall() bool { return r != nil && r.wall }

// Scope returns the scope every span is stamped with.
func (r *SpanRecorder) Scope() string {
	if r == nil {
		return ""
	}
	return r.scope
}

// Begin opens a span: it captures the wall start time and nothing else.
// Zero-allocation; safe to call unconditionally on a nil recorder.
//
// lint:hotpath
func (r *SpanRecorder) Begin() SpanStart {
	if r == nil {
		return SpanStart{}
	}
	return SpanStart{at: r.clock.Now()}
}

// End finishes the span begun at st: the recorder fills Scope, derives the
// ID when the caller left it zero, computes WallUS from the token (or
// pins it to -1 in deterministic mode), and appends. Zero-allocation in
// steady state (the backing slice grows amortized, off the fast path).
//
// lint:hotpath
func (r *SpanRecorder) End(st SpanStart, sp Span) {
	if r == nil {
		return
	}
	if r.wall {
		sp.WallUS = r.clock.Now().Sub(st.at).Microseconds()
	} else {
		sp.WallUS = -1
	}
	r.add(sp)
}

// AddWall records a finished span whose wall window the caller measured
// with explicit stamps (the pipeline cuts every stage of a query from one
// shared set of stamps so the stages tile the root exactly).
//
// lint:hotpath
func (r *SpanRecorder) AddWall(sp Span, start, end time.Time) {
	if r == nil {
		return
	}
	if r.wall {
		sp.WallUS = end.Sub(start).Microseconds()
	} else {
		sp.WallUS = -1
	}
	r.add(sp)
}

// AddWallUS records a finished span with a precomputed wall duration
// (dropped in deterministic mode).
//
// lint:hotpath
func (r *SpanRecorder) AddWallUS(sp Span, wallUS int64) {
	if r == nil {
		return
	}
	if r.wall {
		sp.WallUS = wallUS
	} else {
		sp.WallUS = -1
	}
	r.add(sp)
}

// add fills the derived fields and appends.
//
// lint:hotpath
func (r *SpanRecorder) add(sp Span) {
	sp.Scope = r.scope
	if sp.ID == 0 {
		sp.ID = DeriveSpanID(r.scope, sp.Seq, sp.Stage, sp.Attempt)
	}
	r.mu.Lock()
	r.emitSeq++
	sp.emit = r.emitSeq
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far, in emission order.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Len returns the number of spans recorded so far.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spanLess is the canonical (time, scope, emission order) stream order
// shared by the merge paths.
func spanLess(a, b *Span) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	if a.Scope != b.Scope {
		return a.Scope < b.Scope
	}
	return a.emit < b.emit
}

// MergeSpans interleaves per-scope span streams into one chronological
// stream ordered by (time, scope, emission order). The merge is
// deterministic because each input stream's emission order is itself
// deterministic. It runs an O(n log k) k-way merge over already-sorted
// streams (the committer stamps spans in commit order, so recorder streams
// normally are) and falls back to the stable sort when a stream arrives
// out of order.
func MergeSpans(streams ...[]Span) []Span {
	var n int
	sorted := true
	for _, s := range streams {
		n += len(s)
		for i := 1; sorted && i < len(s); i++ {
			if spanLess(&s[i], &s[i-1]) {
				sorted = false
			}
		}
	}
	out := make([]Span, 0, n)
	if !sorted {
		for _, s := range streams {
			out = append(out, s...)
		}
		sort.SliceStable(out, func(i, j int) bool { return spanLess(&out[i], &out[j]) })
		return out
	}
	h := mergeHeap[Span]{streams: streams, pos: make([]int, len(streams)), less: spanLess}
	h.init()
	for h.len > 0 {
		out = append(out, *h.pop())
	}
	return out
}

// mergeHeap is a minimal binary heap over the head elements of k sorted
// streams, for MergeSpans. pos[i] is the next unread index in streams[i];
// idx holds the stream indices currently in the heap.
type mergeHeap[T any] struct {
	streams [][]T
	pos     []int
	idx     []int
	len     int
	less    func(a, b *T) bool
}

func (h *mergeHeap[T]) init() {
	h.idx = make([]int, 0, len(h.streams))
	for i, s := range h.streams {
		if len(s) > 0 {
			h.idx = append(h.idx, i)
		}
	}
	h.len = len(h.idx)
	for i := h.len/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// head returns the current head element of the stream at heap slot i.
func (h *mergeHeap[T]) head(i int) *T {
	s := h.idx[i]
	return &h.streams[s][h.pos[s]]
}

// heapLess orders heap slots by element, then by stream index for
// stability.
func (h *mergeHeap[T]) heapLess(i, j int) bool {
	a, b := h.head(i), h.head(j)
	if h.less(a, b) {
		return true
	}
	if h.less(b, a) {
		return false
	}
	return h.idx[i] < h.idx[j]
}

func (h *mergeHeap[T]) down(i int) {
	for {
		l := 2*i + 1
		if l >= h.len {
			return
		}
		m := l
		if r := l + 1; r < h.len && h.heapLess(r, l) {
			m = r
		}
		if !h.heapLess(m, i) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}

// pop returns the overall minimum head and advances its stream, removing
// the stream from the heap when exhausted.
func (h *mergeHeap[T]) pop() *T {
	s := h.idx[0]
	e := &h.streams[s][h.pos[s]]
	h.pos[s]++
	if h.pos[s] >= len(h.streams[s]) {
		h.idx[0] = h.idx[h.len-1]
		h.len--
	}
	h.down(0)
	return e
}

// AppendSpan renders one span as a single JSON line (no trailing newline)
// appended to dst. Field order is fixed and optional zero fields are
// omitted, so the encoding is byte-deterministic. Span IDs render as
// zero-padded 16-digit hex strings: JSON numbers cannot carry a full
// uint64 without loss.
//
// lint:hotpath
func AppendSpan(dst []byte, sp Span) []byte {
	dst = append(dst, `{"t":"`...)
	dst = sp.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","scope":`...)
	dst = AppendJSONString(dst, sp.Scope)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, sp.Seq, 10)
	dst = append(dst, `,"span":`...)
	dst = AppendJSONString(dst, sp.Stage)
	dst = append(dst, `,"id":"`...)
	dst = appendSpanID(dst, sp.ID)
	dst = append(dst, '"')
	if sp.Parent != 0 {
		dst = append(dst, `,"parent":"`...)
		dst = appendSpanID(dst, sp.Parent)
		dst = append(dst, '"')
	}
	if sp.Attempt != 0 {
		dst = append(dst, `,"attempt":`...)
		dst = strconv.AppendInt(dst, int64(sp.Attempt), 10)
	}
	if sp.Retry != 0 {
		dst = append(dst, `,"retry":`...)
		dst = strconv.AppendInt(dst, int64(sp.Retry), 10)
	}
	if sp.BackoffUS != 0 {
		dst = append(dst, `,"backoff_us":`...)
		dst = strconv.AppendInt(dst, sp.BackoffUS, 10)
	}
	if sp.Fate != "" {
		dst = append(dst, `,"fate":`...)
		dst = AppendJSONString(dst, sp.Fate)
	}
	if sp.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = AppendJSONString(dst, sp.Detail)
	}
	if sp.WallUS >= 0 {
		dst = append(dst, `,"wall_us":`...)
		dst = strconv.AppendInt(dst, sp.WallUS, 10)
	}
	dst = append(dst, '}')
	return dst
}

// appendSpanID renders id as fixed-width hex.
//
// lint:hotpath
func appendSpanID(dst []byte, id SpanID) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(uint64(id)>>shift)&0xF])
	}
	return dst
}

// ParseSpanID parses the fixed-width hex form AppendSpan emits.
func ParseSpanID(s string) (SpanID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: parsing span id %q: %w", s, err)
	}
	return SpanID(v), nil
}

// WriteSpansJSONL streams spans as JSONL.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range spans {
		line = AppendSpan(line[:0], spans[i])
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("obs: writing span %d: %w", i, err)
		}
	}
	return bw.Flush()
}
