package core

import "testing"

// TestBreakerEpochs pins the circuit breaker's state machine: hosts open
// only at epoch boundaries after threshold consecutive failures, stay
// suppressed for the cooldown, and successes reset the streak.
func TestBreakerEpochs(t *testing.T) {
	t.Parallel()
	b := newBreaker()
	for i := 0; i < b.threshold; i++ {
		b.record("10.0.0.1", false)
	}
	if !b.allowed("10.0.0.1") {
		t.Fatal("breaker opened mid-epoch; state must only change at advance()")
	}
	opened, closed := b.advance()
	if opened != 1 || closed != 0 || b.allowed("10.0.0.1") {
		t.Fatalf("advance = (%d opened, %d closed), allowed=%v; want host open", opened, closed, b.allowed("10.0.0.1"))
	}
	// Outcomes against an open host (fast fails) must not extend it.
	b.record("10.0.0.1", false)
	opened, closed = b.advance()
	if opened != 0 || closed != 1 || !b.allowed("10.0.0.1") {
		t.Fatalf("cooldown advance = (%d opened, %d closed), allowed=%v; want host closed", opened, closed, b.allowed("10.0.0.1"))
	}
	// A success resets the consecutive-failure streak.
	b.record("10.0.0.2", false)
	b.record("10.0.0.2", false)
	b.record("10.0.0.2", true)
	b.record("10.0.0.2", false)
	if opened, _ := b.advance(); opened != 0 {
		t.Fatal("streak survived an intervening success")
	}
}
