package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestRealSleepAndAfter(t *testing.T) {
	c := Real{}
	before := c.Now()
	Sleep(c, time.Millisecond)
	if got := Since(c, before); got < time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= 1ms", got)
	}
	select {
	case <-After(c, time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("After(Real) never fired")
	}
}

func TestNewTimer(t *testing.T) {
	expired, stop := NewTimer(Real{}, time.Millisecond)
	select {
	case <-expired:
	case <-time.After(5 * time.Second):
		t.Fatal("NewTimer(Real) never fired")
	}
	stop()
	expired, stop = NewTimer(Real{}, time.Millisecond)
	stop()
	select {
	case <-expired:
		t.Fatal("a stopped real timer fired")
	case <-time.After(20 * time.Millisecond):
	}
	v := NewVirtual(DefaultEpoch)
	expired, stop = NewTimer(v, time.Minute)
	defer stop()
	v.Advance(time.Minute)
	select {
	case <-expired:
	default:
		t.Fatal("NewTimer(Virtual) did not fire once the clock advanced")
	}
}

func TestOrReal(t *testing.T) {
	if _, ok := OrReal(nil).(Real); !ok {
		t.Fatalf("OrReal(nil) = %T, want Real", OrReal(nil))
	}
	v := NewVirtual(DefaultEpoch)
	if OrReal(v) != Clock(v) {
		t.Fatal("OrReal should pass non-nil clocks through")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	var wg sync.WaitGroup
	woke := make(chan time.Duration, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := v.Now()
			v.Sleep(10 * time.Second)
			woke <- v.Now().Sub(start)
		}()
	}
	// Let the sleepers block, then advance past their wake time. Advancing
	// in two steps exercises the "not yet there" re-check.
	time.Sleep(10 * time.Millisecond)
	v.Advance(5 * time.Second)
	time.Sleep(10 * time.Millisecond)
	v.Advance(6 * time.Second)
	wg.Wait()
	close(woke)
	for d := range woke {
		if d < 10*time.Second {
			t.Fatalf("sleeper woke after %v of virtual time, want >= 10s", d)
		}
	}
}

func TestVirtualSleepZeroReturnsImmediately(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	done := make(chan struct{})
	go func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep(0) blocked")
	}
}

func TestVirtualAfter(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	ch := v.After(time.Minute)
	select {
	case <-ch:
		t.Fatal("After fired before the clock advanced")
	default:
	}
	v.Advance(time.Minute)
	select {
	case now := <-ch:
		if want := DefaultEpoch.Add(time.Minute); !now.Equal(want) {
			t.Fatalf("After delivered %v, want %v", now, want)
		}
	default:
		t.Fatal("After did not fire once the clock advanced")
	}
}

func TestSleepFallbackPollsNow(t *testing.T) {
	// A Clock that implements neither Sleeper nor Delayer still unblocks
	// Sleep/After once its Now moves.
	fc := &fakeClock{now: DefaultEpoch}
	done := make(chan struct{})
	go func() {
		Sleep(fc, time.Hour)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	fc.advance(2 * time.Hour)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fallback Sleep never returned")
	}
}

type fakeClock struct {
	mu  sync.Mutex
	now time.Time // guarded by mu
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}
