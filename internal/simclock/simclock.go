// Package simclock provides a virtual clock and discrete-event scheduler so
// that a month-long measurement trace can be simulated in seconds while
// still producing realistic timestamps.
//
// The study's temporal analyses (malicious responses per day, trace
// duration) depend on trace time, not wall time; all simulation components
// read time through a Clock so the whole system can run against either the
// real clock or a virtual one.
package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is the time source abstraction used across the simulator.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// Sleeper is implemented by clocks that can block a goroutine until a
// duration has elapsed on that clock.
type Sleeper interface {
	// Sleep blocks until the clock has advanced by d.
	Sleep(d time.Duration)
}

// Delayer is implemented by clocks that can deliver a one-shot timer
// channel, the simclock equivalent of time.After.
type Delayer interface {
	// After returns a channel that receives the clock's time once it has
	// advanced by d.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Sleeper with the system clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Delayer with the system clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// OrReal returns c, or the real clock when c is nil, so config structs can
// leave their Clock field unset.
func OrReal(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Sleep blocks until c has advanced by d. Clocks that do not implement
// Sleeper fall back to polling c.Now on a short wall-clock tick, so the
// call still returns once the clock's time has moved far enough.
func Sleep(c Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if s, ok := c.(Sleeper); ok {
		s.Sleep(d)
		return
	}
	target := c.Now().Add(d)
	for c.Now().Before(target) {
		time.Sleep(time.Millisecond)
	}
}

// After returns a channel that receives c's time once it has advanced by
// d; the simclock replacement for time.After.
func After(c Clock, d time.Duration) <-chan time.Time {
	if t, ok := c.(Delayer); ok {
		return t.After(d)
	}
	ch := make(chan time.Time, 1)
	go func() {
		Sleep(c, d)
		ch <- c.Now()
	}()
	return ch
}

// NewTimer is After with a stop function that releases the timer before
// it fires; the simclock replacement for time.NewTimer. A real-clock timer
// nobody stops stays live until it fires, so a wait that may end early
// should stop it. Stopping another clock's timer does nothing.
func NewTimer(c Clock, d time.Duration) (<-chan time.Time, func()) {
	if _, ok := c.(Real); ok {
		t := time.NewTimer(d)
		return t.C, func() { t.Stop() }
	}
	return After(c, d), func() {}
}

// Since returns the time elapsed on c since t; the simclock replacement
// for time.Since.
func Since(c Clock, t time.Time) time.Duration { return c.Now().Sub(t) }

// Virtual is a discrete-event virtual clock. Events scheduled on the clock
// run in timestamp order when the clock is advanced; time only moves when
// Advance or Run is called. Virtual is safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time  // guarded by mu
	queue  eventQueue // guarded by mu
	seq    uint64     // guarded by mu
	inStep bool       // guarded by mu
	moved  *sync.Cond // signals sleepers when now advances; lazily built under mu
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
// non-positive delay run at the current instant on the next Advance/Run.
func (v *Virtual) Schedule(d time.Duration, fn func(now time.Time)) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	heap.Push(&v.queue, &event{at: v.now.Add(d), seq: v.seq, fn: fn})
}

// ScheduleAt runs fn when the clock reaches t. If t is in the past, fn runs
// at the current instant on the next Advance/Run.
func (v *Virtual) ScheduleAt(t time.Time, fn func(now time.Time)) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	at := t
	if at.Before(v.now) {
		at = v.now
	}
	v.seq++
	heap.Push(&v.queue, &event{at: at, seq: v.seq, fn: fn})
}

// movedLocked returns the condition variable signalling clock movement,
// building it on first use. Callers must hold v.mu.
func (v *Virtual) movedLocked() *sync.Cond {
	if v.moved == nil {
		v.moved = sync.NewCond(&v.mu)
	}
	return v.moved
}

// broadcastLocked wakes every goroutine blocked in Sleep. Callers must
// hold v.mu.
func (v *Virtual) broadcastLocked() {
	if v.moved != nil {
		v.moved.Broadcast()
	}
}

// Sleep implements Sleeper: it blocks until the virtual clock has advanced
// by d. Another goroutine must drive the clock via Advance or Run, exactly
// as wall-clock sleeps depend on the scheduler; with no driver the call
// blocks forever.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	target := v.now.Add(d)
	cond := v.movedLocked()
	for v.now.Before(target) {
		cond.Wait()
	}
}

// After implements Delayer: the returned channel receives the virtual time
// once the clock has advanced by d.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.Schedule(d, func(now time.Time) { ch <- now })
	return ch
}

// Pending returns the number of events not yet fired.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.queue)
}

// Advance moves the clock forward by d, firing every event whose time falls
// within the window, in timestamp order. Events may schedule further events;
// those within the window also fire. It returns the number of events fired.
func (v *Virtual) Advance(d time.Duration) int {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	v.mu.Lock()
	if v.inStep {
		v.mu.Unlock()
		panic("simclock: Advance called from within an event callback")
	}
	deadline := v.now.Add(d)
	fired := 0
	for len(v.queue) > 0 && !v.queue[0].at.After(deadline) {
		e := heap.Pop(&v.queue).(*event)
		if e.at.After(v.now) {
			v.now = e.at
			v.broadcastLocked()
		}
		v.inStep = true
		v.mu.Unlock()
		e.fn(e.at)
		v.mu.Lock()
		v.inStep = false
		fired++
	}
	v.now = deadline
	v.broadcastLocked()
	v.mu.Unlock()
	return fired
}

// Run fires events until the queue is empty or maxEvents have fired
// (maxEvents <= 0 means unbounded). It returns the number of events fired.
// The clock advances to each event's timestamp as it fires.
func (v *Virtual) Run(maxEvents int) int {
	fired := 0
	for {
		v.mu.Lock()
		if v.inStep {
			v.mu.Unlock()
			panic("simclock: Run called from within an event callback")
		}
		if len(v.queue) == 0 || (maxEvents > 0 && fired >= maxEvents) {
			v.mu.Unlock()
			return fired
		}
		e := heap.Pop(&v.queue).(*event)
		if e.at.After(v.now) {
			v.now = e.at
			v.broadcastLocked()
		}
		v.inStep = true
		v.mu.Unlock()
		e.fn(e.at)
		v.mu.Lock()
		v.inStep = false
		v.mu.Unlock()
		fired++
	}
}

// DefaultEpoch is the trace start used across the reproduction: the rough
// period during which the paper's data was collected.
var DefaultEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)
