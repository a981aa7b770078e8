package p2p

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Flood completion accounting.
//
// An in-memory universe knows every message in flight, so a query's flood
// can end exactly instead of after a guessed quiet window. The ledger
// keeps, per open flood, the number of counted messages that are still
// outstanding: sent but not yet handled or dropped.
//
//   - The issuer opens the flood holding one count, sends, and releases
//     its hold after its last send. Without the hold, the first peer to
//     finish handling could drive the count to zero before the issuer has
//     sent to the others.
//   - Every send of a counted message adds one, before the message can be
//     seen by anyone who might retire it.
//   - Every counted message is retired exactly once: by the receiver after
//     its handler returns (anything the handler sent has been added by
//     then), or by the sender when the message never reached the receiver
//     — dropped on a full queue, refused by a closed peer, cut off by a
//     failed write, or still queued when its connection shut down.
//
// A message is only ever created by the issuer or by a handler of another
// counted message of the same flood, so once the count reaches zero no
// message of the flood exists and none can appear: the flood is complete.
// Messages of floods nobody opened are not counted at all, so traffic from
// clients that never open floods costs one atomic load per send.

// FloodBound is how long Wait lets a flood stay open before declaring it
// stuck. A flood in an in-memory universe completes in milliseconds; one
// still open after this long has leaked a count, and failing loudly beats
// ending silently with partial responses.
const FloodBound = 30 * time.Second

// ErrFloodStuck reports a flood still open after FloodBound.
var ErrFloodStuck = errors.New("p2p: flood still open after its bound")

// FloodID names one flood in a ledger: a Gnutella query GUID, or an
// OpenFT search ID in its first four bytes. A ledger serves one universe,
// so the two forms never meet.
type FloodID [16]byte

// FloodLedger counts the outstanding messages of each open flood. The zero
// value is ready to use, and a nil *FloodLedger counts nothing, so code
// running over a transport without a ledger (TCP) calls it unconditionally.
type FloodLedger struct {
	// live counts open floods, so traffic of unopened floods skips the
	// lock entirely.
	live atomic.Int32

	mu   sync.Mutex
	open map[FloodID]openFlood // guarded by mu
}

// openFlood is one open flood's ledger entry.
type openFlood struct {
	n int    // outstanding messages plus the issuer's hold
	f *Flood // the issuer's handle
}

// Flood is one open flood, as returned to its issuer by Open.
type Flood struct {
	led  *FloodLedger
	id   FloodID
	done chan struct{} // closed when the count reaches zero
}

// Open starts counting flood id with one count held by the issuer, which
// must call Release after its last send and may then Wait. id must be
// fresh: a flood already open under it is a caller bug.
func (l *FloodLedger) Open(id FloodID) *Flood {
	f := &Flood{led: l, id: id, done: make(chan struct{})}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.open == nil {
		l.open = make(map[FloodID]openFlood)
	}
	if _, dup := l.open[id]; dup {
		panic("p2p: flood opened twice")
	}
	l.open[id] = openFlood{n: 1, f: f}
	l.live.Add(1)
	return f
}

// Sent counts one message of flood id. Call it before the message is
// handed to anything that may retire it; it is a no-op when the flood is
// not open.
//
// lint:hotpath
func (l *FloodLedger) Sent(id FloodID) {
	if l == nil || l.live.Load() == 0 {
		return
	}
	l.mu.Lock()
	if e, ok := l.open[id]; ok {
		e.n++
		l.open[id] = e
	}
	l.mu.Unlock()
}

// Retire retires one counted message of flood id; the flood completes
// when its count reaches zero. A no-op when the flood is not open.
//
// lint:hotpath
func (l *FloodLedger) Retire(id FloodID) {
	if l == nil || l.live.Load() == 0 {
		return
	}
	var done *Flood
	l.mu.Lock()
	if e, ok := l.open[id]; ok {
		e.n--
		if e.n > 0 {
			l.open[id] = e
		} else {
			delete(l.open, id)
			l.live.Add(-1)
			done = e.f
		}
	}
	l.mu.Unlock()
	if done != nil {
		close(done.done)
	}
}

// Release drops the issuer's hold. Call it once, after the last send.
func (f *Flood) Release() { f.led.Retire(f.id) }

// Done is closed when the flood completes.
func (f *Flood) Done() <-chan struct{} { return f.done }

// Wait blocks until the flood completes, or fails with ErrFloodStuck once
// FloodBound has passed; a stuck flood is closed, so its late messages are
// no longer counted.
func (f *Flood) Wait() error { return f.wait(FloodBound) }

func (f *Flood) wait(bound time.Duration) error {
	timer := time.NewTimer(bound)
	defer timer.Stop()
	select {
	case <-f.done:
		return nil
	case <-timer.C:
	}
	l := f.led
	l.mu.Lock()
	e, ok := l.open[f.id]
	stuck := ok && e.f == f
	if stuck {
		delete(l.open, f.id)
		l.live.Add(-1)
	}
	l.mu.Unlock()
	if !stuck {
		return nil // completed while the timer fired
	}
	return fmt.Errorf("%w: %d messages outstanding after %v", ErrFloodStuck, e.n, bound)
}

// Floods returns the ledger of the universe behind t, or nil when t keeps
// none.
func Floods(t Transport) *FloodLedger {
	if m, ok := t.(interface{ Floods() *FloodLedger }); ok {
		return m.Floods()
	}
	return nil
}

// Outbox is a connection writer's share of the accounting: it counts the
// bytes the connection accepted and remembers which counted messages it
// has staged but not yet seen delivered, so a failed write retires exactly
// the messages that never reached the receiver. A message whose last byte
// the receiver read is the receiver's to retire — it handles it, or
// retires it unhandled when its read loop stops. Wrap the connection in
// the Outbox and put the buffered writer on top. An Outbox belongs to one
// writer at a time.
type Outbox struct {
	w       io.Writer
	led     *FloodLedger
	written int64     // bytes the connection accepted
	staged  int64     // bytes handed to the buffered writer above
	pend    []pending // counted messages staged past the last clean flush
}

type pending struct {
	id  FloodID
	end int64 // staged offset just past the message's last byte
}

// NewOutbox wraps w; led may be nil.
func NewOutbox(w io.Writer, led *FloodLedger) *Outbox {
	return &Outbox{w: w, led: led}
}

// Write passes p to the connection, counting what it accepted.
func (o *Outbox) Write(p []byte) (int, error) {
	n, err := o.w.Write(p)
	o.written += int64(n)
	return n, err
}

// Staged records one whole message of size bytes handed to the buffered
// writer. counted marks a message of flood id that Sent counted.
//
// lint:hotpath
func (o *Outbox) Staged(size int, id FloodID, counted bool) {
	o.staged += int64(size)
	if counted && o.led != nil {
		o.pend = append(o.pend, pending{id: id, end: o.staged})
	}
}

// Flushed records a clean flush: everything staged reached the receiver.
//
// lint:hotpath
func (o *Outbox) Flushed() { o.pend = o.pend[:0] }

// Failed retires every staged counted message the receiver did not read
// in full. Call it once, when the writer gives up on the connection.
func (o *Outbox) Failed() {
	for _, p := range o.pend {
		if p.end > o.written {
			o.led.Retire(p.id)
		}
	}
	o.pend = o.pend[:0]
}
