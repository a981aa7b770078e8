package p2p

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

func floodDone(f *Flood) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

// TestFloodIssuerHold pins the issuer's hold: while the issuer has not
// released, the count cannot reach zero, however fast the messages it has
// already sent are handled.
func TestFloodIssuerHold(t *testing.T) {
	var led FloodLedger
	id := FloodID{1}
	f := led.Open(id)
	led.Sent(id) // to the first ultrapeer
	led.Retire(id)
	if floodDone(f) {
		t.Fatal("flood completed while the issuer still held its count")
	}
	led.Sent(id) // to the second ultrapeer, after the first finished
	led.Sent(id) // a hit the second one caused
	led.Retire(id)
	f.Release()
	if floodDone(f) {
		t.Fatal("flood completed with a message outstanding")
	}
	led.Retire(id)
	if !floodDone(f) {
		t.Fatal("flood did not complete when its last message retired")
	}
	if err := f.wait(time.Second); err != nil {
		t.Fatalf("wait on a completed flood: %v", err)
	}
}

// TestFloodUnopenedIgnored pins that only opened floods are counted:
// traffic of other floods — including clients that never open any — does
// not touch an open flood's count, and a nil ledger counts nothing.
func TestFloodUnopenedIgnored(t *testing.T) {
	var led FloodLedger
	other := FloodID{9}
	led.Sent(other)
	led.Retire(other)
	led.Retire(other) // an unmatched retire must not underflow anything

	id := FloodID{1}
	f := led.Open(id)
	led.Sent(other)
	led.Retire(other)
	f.Release()
	if !floodDone(f) {
		t.Fatal("traffic of an unopened flood kept an open flood alive")
	}
	// Once complete, the flood is forgotten: late traffic is ignored.
	led.Sent(id)
	led.Retire(id)
	if n := led.live.Load(); n != 0 {
		t.Fatalf("%d floods still open", n)
	}

	var none *FloodLedger
	none.Sent(id)
	none.Retire(id)
}

// TestFloodStuckFailsLoudly pins the failure bound: a flood with a leaked
// count fails with ErrFloodStuck instead of completing with whatever
// arrived, and is closed so its late messages are no longer counted.
func TestFloodStuckFailsLoudly(t *testing.T) {
	var led FloodLedger
	id := FloodID{1}
	f := led.Open(id)
	led.Sent(id) // never retired
	f.Release()
	err := f.wait(20 * time.Millisecond)
	if !errors.Is(err, ErrFloodStuck) {
		t.Fatalf("wait = %v, want ErrFloodStuck", err)
	}
	if floodDone(f) {
		t.Fatal("a stuck flood reported completion")
	}
	led.Retire(id) // the straggler, after the flood was abandoned
	if n := led.live.Load(); n != 0 {
		t.Fatalf("%d floods still open after abandonment", n)
	}
	// The id is free again.
	g := led.Open(id)
	g.Release()
	if !floodDone(g) {
		t.Fatal("reopened flood did not complete")
	}
}

// TestFloodCompletesAfterConcurrentTree floods a tree of handlers running
// on their own goroutines — each counted before it starts, each counting
// its children before it retires — and checks the flood completes only
// after every handler has finished.
func TestFloodCompletesAfterConcurrentTree(t *testing.T) {
	var led FloodLedger
	id := FloodID{3}
	f := led.Open(id)
	var handled atomic.Int32
	var handle func(depth int)
	handle = func(depth int) {
		if depth > 0 {
			for i := 0; i < 3; i++ {
				led.Sent(id)
				go handle(depth - 1)
			}
		}
		handled.Add(1)
		led.Retire(id)
	}
	for i := 0; i < 4; i++ {
		led.Sent(id)
		go handle(3)
	}
	f.Release()
	if err := f.wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 4 roots, each a ternary tree of depth 3: 4 * (1+3+9+27) handlers.
	if n := handled.Load(); n != 160 {
		t.Fatalf("flood completed after %d of 160 handlers", n)
	}
}

// limitWriter accepts limit bytes in total, then fails.
type limitWriter struct{ limit int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	return n, io.ErrClosedPipe
}

// TestOutboxRetiresUndelivered pins the write-failure split: messages the
// receiver read in full are its to retire; the one cut off mid-frame and
// the ones never written are the sender's.
func TestOutboxRetiresUndelivered(t *testing.T) {
	var led FloodLedger
	a, b := FloodID{1}, FloodID{2}
	fa, fb := led.Open(a), led.Open(b)
	box := NewOutbox(&limitWriter{limit: 15}, &led)
	frame := make([]byte, 10)
	for _, id := range []FloodID{a, b, b} {
		led.Sent(id)
		box.Staged(len(frame), id, true)
	}
	box.Staged(len(frame), FloodID{}, false) // an uncounted descriptor
	if _, err := box.Write(append(append(frame, frame...), frame...)); err == nil {
		t.Fatal("write past the limit succeeded")
	}
	box.Failed()
	fa.Release()
	fb.Release()
	if floodDone(fa) {
		t.Fatal("the sender retired a message the receiver read in full")
	}
	if !floodDone(fb) {
		t.Fatal("the sender kept counts for messages the receiver never read")
	}
	led.Retire(a) // the receiver's share
	if !floodDone(fa) {
		t.Fatal("flood a did not complete")
	}
}

// TestFloodLedgerZeroAllocs pins the `// lint:hotpath` contract on the
// per-message ledger path: counting and retiring a message, of an open
// flood or an unopened one, and staging it through a warm outbox allocate
// nothing.
func TestFloodLedgerZeroAllocs(t *testing.T) {
	var led FloodLedger
	id := FloodID{1}
	f := led.Open(id)
	defer f.Release()
	other := FloodID{2}
	box := NewOutbox(io.Discard, &led)
	box.Staged(8, id, true)
	box.Flushed()
	if n := testing.AllocsPerRun(1000, func() {
		led.Sent(id)
		box.Staged(64, id, true)
		box.Flushed()
		led.Retire(id)
		led.Sent(other)
		led.Retire(other)
	}); n != 0 {
		t.Fatalf("ledger path allocs = %v, want 0", n)
	}
}
