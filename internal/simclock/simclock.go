// Package simclock provides a virtual clock and discrete-event scheduler so
// that a month-long measurement trace can be simulated in seconds while
// still producing realistic timestamps.
//
// The study's temporal analyses (malicious responses per day, trace
// duration) depend on trace time, not wall time. Trace time is one
// Virtual per study, which schedules its queries and day boundaries and
// stamps every record and span; everything else the program times
// (socket deadlines, backoff sleeps, latency metrics, wall_us span
// durations) bounds real activity and reads package time directly.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source abstraction used across the simulator.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// OrReal returns c, or the real clock when c is nil, so config structs can
// leave their Clock field unset.
func OrReal(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Virtual is a discrete-event virtual clock. Events scheduled on the clock
// run in timestamp order when Run drains the queue; time only moves inside
// Run. Virtual is safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time  // guarded by mu
	queue  eventQueue // guarded by mu
	seq    uint64     // guarded by mu
	inStep bool       // guarded by mu
}

// Event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-break: FIFO among same-time events
	fn  func(now time.Time)
	idx int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewVirtual returns a virtual clock starting at the given epoch.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{now: epoch}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Schedule runs fn when the clock reaches now+d. Events scheduled with
// non-positive delay run at the current instant on the next Run.
func (v *Virtual) Schedule(d time.Duration, fn func(now time.Time)) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	heap.Push(&v.queue, &event{at: v.now.Add(d), seq: v.seq, fn: fn})
}

// Run fires events in timestamp order until the queue is empty, events
// scheduled by callbacks included. The clock advances to each event's
// timestamp as it fires.
func (v *Virtual) Run() {
	for {
		v.mu.Lock()
		if v.inStep {
			v.mu.Unlock()
			panic("simclock: Run called from within an event callback")
		}
		if len(v.queue) == 0 {
			v.mu.Unlock()
			return
		}
		e := heap.Pop(&v.queue).(*event)
		if e.at.After(v.now) {
			v.now = e.at
		}
		v.inStep = true
		v.mu.Unlock()
		e.fn(e.at)
		v.mu.Lock()
		v.inStep = false
		v.mu.Unlock()
	}
}

// DefaultEpoch is the trace start used across the reproduction: the rough
// period during which the paper's data was collected.
var DefaultEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)
