package p2p

import (
	"time"

	"p2pmalware/internal/simclock"
)

// Time discipline (enforced by cmd/p2plint's clockcheck): this package
// never calls time.Now, time.Sleep or time.NewTimer directly. All of its
// time reads bound real activity — transfer deadlines, backoff sleeps,
// attempt durations and the flood bound — so they go through ioClock,
// which is always the real clock. Driving them from a virtual clock would
// produce deadlines in the simulated past and kill every read.
var ioClock simclock.Clock = simclock.Real{}

// ioDeadline returns the wall-clock instant d from now, for
// net.Conn.Set*Deadline calls.
func ioDeadline(d time.Duration) time.Time { return ioClock.Now().Add(d) }
