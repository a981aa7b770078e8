package simclock

import (
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatal("Real.Now outside [before, after]")
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

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	if !v.Now().Equal(DefaultEpoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), DefaultEpoch)
	}
}

func TestRunFiresInOrder(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	var order []int
	v.Schedule(3*time.Second, func(time.Time) { order = append(order, 3) })
	v.Schedule(1*time.Second, func(time.Time) { order = append(order, 1) })
	v.Schedule(2*time.Second, func(time.Time) { order = append(order, 2) })
	v.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := v.Now().Sub(DefaultEpoch); got != 3*time.Second {
		t.Fatalf("clock at +%v, want +3s", got)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		v.Schedule(time.Second, func(time.Time) { order = append(order, i) })
	}
	v.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	count := 0
	var tick func(now time.Time)
	tick = func(now time.Time) {
		count++
		if count < 5 {
			v.Schedule(time.Minute, tick)
		}
	}
	v.Schedule(time.Minute, tick)
	v.Run()
	if count != 5 {
		t.Fatalf("chained events fired %d times, want 5", count)
	}
	if got := v.Now().Sub(DefaultEpoch); got != 5*time.Minute {
		t.Fatalf("clock at +%v, want +5m", got)
	}
}

func TestRunDrainsQueue(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	n := 0
	for i := 1; i <= 20; i++ {
		v.Schedule(time.Duration(i)*time.Second, func(time.Time) { n++ })
	}
	v.Run()
	if n != 20 {
		t.Fatalf("Run fired %d of 20 events", n)
	}
	if got := v.Now().Sub(DefaultEpoch); got != 20*time.Second {
		t.Fatalf("clock at +%v", got)
	}
	v.Run()
	if n != 20 {
		t.Fatalf("a second Run fired %d more events", n-20)
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewVirtual(DefaultEpoch).Schedule(time.Second, nil)
}

func TestCallbackReceivesEventTime(t *testing.T) {
	v := NewVirtual(DefaultEpoch)
	var got time.Time
	v.Schedule(90*time.Second, func(now time.Time) { got = now })
	v.Schedule(10*time.Minute, func(time.Time) {})
	v.Run()
	if want := DefaultEpoch.Add(90 * time.Second); !got.Equal(want) {
		t.Fatalf("callback time = %v, want %v", got, want)
	}
}
