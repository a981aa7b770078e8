package netsim

import (
	"fmt"
	"sync"
	"time"

	"p2pmalware/internal/p2p"
)

// The overlay settle wait polls real goroutine progress (acceptor
// registration, QRP patch and ADDSHARE application) on the wall clock.
const (
	settleDeadline = 10 * time.Second
	settlePoll     = 2 * time.Millisecond
)

// node is what the universe core needs of a protocol node.
type node interface {
	Addr() string
	Connect(addr string) error
	Close() error
}

// universe is the core both simulated networks embed: the transport, every
// running node with its spec, the live honest population, churn, and the
// wait for the overlay to settle. Each network adds only its protocol
// builder and the registered func that reports what its core tier holds.
type universe[N node] struct {
	// Mem is the transport universe.
	Mem *p2p.Mem
	// Nodes are all running nodes, the core tier included.
	Nodes []N
	// Specs describe every synthesized host, parallel to Nodes.
	Specs []*HostSpec

	// registered reports what the core tier has registered: the hosts
	// attached to it, and how many ready units of theirs it answers
	// queries from (QRP-applied leaves on LimeWire, shares on OpenFT).
	registered func() (hosts, ready int)
	// perHonest is the ready units one honest host brings.
	perHonest int
	// newHonest builds one fresh honest host and attaches it to the core
	// node attachIdx selects; it does not register the host.
	newHonest func(attachIdx int) (N, *HostSpec, error)

	mu sync.Mutex
	// honest holds the live honest hosts, oldest first.
	honest  []N
	churnID int
}

// add registers a running node and its spec.
func (u *universe[N]) add(n N, spec *HostSpec) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.Nodes = append(u.Nodes, n)
	u.Specs = append(u.Specs, spec)
}

// addHonest registers a running honest host, which churn may replace.
func (u *universe[N]) addHonest(n N, spec *HostSpec) {
	u.add(n, spec)
	u.mu.Lock()
	defer u.mu.Unlock()
	u.honest = append(u.honest, n)
}

// mesh connects every pair of core-tier nodes once.
func mesh[N node](tier []N) error {
	for i := range tier {
		for j := i + 1; j < len(tier); j++ {
			if err := tier[i].Connect(tier[j].Addr()); err != nil {
				return fmt.Errorf("netsim: mesh %d->%d: %w", i, j, err)
			}
		}
	}
	return nil
}

// settle waits until formed holds for what the core tier has registered.
// Registration runs on the accepting nodes' own goroutines, so the wait
// polls on the wall clock even when the trace clock is virtual.
func (u *universe[N]) settle(what string, formed func(hosts, ready int) bool) error {
	deadline := time.Now().Add(settleDeadline)
	for !formed(u.registered()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("netsim: %s never settled", what)
		}
		time.Sleep(settlePoll)
	}
	return nil
}

// Close shuts every node down.
func (u *universe[N]) Close() {
	u.mu.Lock()
	nodes := append([]N(nil), u.Nodes...)
	u.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

// Churn models population turnover: it closes the oldest fraction frac of
// the live honest hosts (their shared files, and any in-flight downloads
// from them, disappear) and brings up as many fresh honest hosts at new
// addresses. Malware hosts persist, matching the paper's observation that
// malicious sources were stable over the trace. It returns how many hosts
// it replaced.
//
// Churn returns only once the overlay has fully re-formed: the departed
// hosts are deregistered and every replacement is registered and ready.
// Callers churn behind a pipeline barrier, so this wait is what makes
// mid-study churn deterministic: the next query floods a settled
// population, never a half-attached one.
func (u *universe[N]) Churn(frac float64) (int, error) {
	if frac <= 0 {
		return 0, nil
	}
	u.mu.Lock()
	k := min(int(frac*float64(len(u.honest))), len(u.honest))
	leaving := u.honest[:k]
	u.honest = append([]N(nil), u.honest[k:]...)
	first := u.churnID + 1
	u.churnID += k
	u.mu.Unlock()
	hosts, ready := u.registered()
	for _, n := range leaving {
		n.Close()
	}
	// Departures deregister asynchronously (the core node's reader sees
	// the closed conn); wait them out before attaching replacements so
	// the arrival wait below cannot be satisfied by a zombie.
	if err := u.settle("churn departures", func(h, r int) bool {
		return h <= hosts-k && r <= ready-k*u.perHonest
	}); err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		n, spec, err := u.newHonest(first + i)
		if err != nil {
			return i, err
		}
		u.addHonest(n, spec)
	}
	if err := u.settle("churn replacements", func(h, r int) bool {
		return h >= hosts && r >= ready
	}); err != nil {
		return 0, err
	}
	return k, nil
}

// addrs returns the dialable addresses of a core tier.
func addrs[N node](tier []N) []string {
	out := make([]string, len(tier))
	for i, n := range tier {
		out[i] = n.Addr()
	}
	return out
}
