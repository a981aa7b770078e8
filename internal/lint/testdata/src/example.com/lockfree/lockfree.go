// Package lockfree holds deliberate lock-path, blocking-under-lock, and
// resource-leak violations in a package outside internal/, which the CFG
// analyzers do not cover. They must stay silent here — no `// want`
// comments by design.
package lockfree

import (
	"sync"
	"time"
)

type s struct {
	mu sync.Mutex
	ch chan int
}

// leakyLock would be a lockpath finding in a scoped package.
func (x *s) leakyLock(cond bool) {
	x.mu.Lock()
	if cond {
		return
	}
	x.mu.Unlock()
}

// blockUnderLock would be a blockcheck finding in a scoped package.
func (x *s) blockUnderLock(v int) {
	x.mu.Lock()
	x.ch <- v
	time.Sleep(time.Second)
	x.mu.Unlock()
}
