package simclock

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// TestQuickEventsFireInTimestampOrder schedules random delays and asserts
// the firing order is exactly the sorted order (stable for ties).
func TestQuickEventsFireInTimestampOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		v := NewVirtual(DefaultEpoch)
		var fired []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Millisecond
			v.Schedule(d, func(now time.Time) {
				fired = append(fired, now.Sub(DefaultEpoch))
			})
		}
		v.Run()
		if len(fired) != len(delays) {
			return false
		}
		sorted := make([]time.Duration, len(delays))
		for i, d := range delays {
			sorted[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
