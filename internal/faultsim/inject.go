package faultsim

import (
	"errors"
	"hash/fnv"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/stats"
)

// maxStall bounds a slow-loris stall when the victim set no read deadline,
// so an unhardened caller degrades instead of hanging forever.
const maxStall = 2 * time.Second

// Injected fault errors. The messages are stable because they can end up
// in download_error record fields, which same-seed runs must reproduce
// byte-for-byte.
var (
	// ErrInjectedRefuse is returned by Dial when the plan refuses the
	// connection.
	ErrInjectedRefuse = errors.New("connection refused (injected)")
	// ErrInjectedReset is returned by Read when the plan resets or
	// truncates the connection.
	ErrInjectedReset = errors.New("connection reset by peer (injected)")
)

// Injector applies a FaultPlan to a wrapped transport. Fault decisions are
// a pure function of (seed, fetch key, attempt): the Injector holds no
// mutable decision state, so concurrent fetches of different keys cannot
// perturb each other and outcomes are identical for any worker count.
type Injector struct {
	plan  FaultPlan
	seed  uint64
	inner p2p.Transport

	refused   *obs.Counter
	resets    *obs.Counter
	truncated *obs.Counter
	corrupted *obs.Counter
	stalled   *obs.Counter
	delayedUS *obs.Histogram
}

// NewInjector wraps inner with plan, keyed by seed. network labels the
// injector's metrics. Returns nil when the plan injects nothing — callers
// treat a nil *Injector as "use the raw transport".
func NewInjector(plan *FaultPlan, seed uint64, network string, inner p2p.Transport) *Injector {
	if !plan.Active() {
		return nil
	}
	return &Injector{
		plan:      *plan,
		seed:      seed,
		inner:     inner,
		refused:   obs.C("p2p_faults_injected_total", "network", network, "kind", "dial_refuse"),
		resets:    obs.C("p2p_faults_injected_total", "network", network, "kind", "reset"),
		truncated: obs.C("p2p_faults_injected_total", "network", network, "kind", "truncate"),
		corrupted: obs.C("p2p_faults_injected_total", "network", network, "kind", "corrupt"),
		stalled:   obs.C("p2p_faults_injected_total", "network", network, "kind", "slow_loris"),
		delayedUS: obs.H("p2p_faults_latency_us", obs.LatencyBuckets, "network", network),
	}
}

// Transport returns a faulting view of the wrapped transport for one fetch
// key. Each Dial on the view is one numbered attempt; the fault verdict
// for (key, attempt) is fixed by the plan seed. A nil injector returns
// inner unchanged semantics via the raw transport, so callers can write
// inj.Transport(key) unconditionally.
func (inj *Injector) Transport(key string) p2p.Transport {
	if inj == nil {
		return nil
	}
	return &view{inj: inj, key: key}
}

// view is a per-fetch-key window onto the injector: its attempt counter is
// private to one fetch (fetches are singleflighted per key upstream), so
// the attempt sequence — and therefore every draw — is schedule-independent.
type view struct {
	inj     *Injector
	key     string
	attempt atomic.Int64
}

// Listen passes through to the wrapped transport.
func (v *view) Listen(addr string) (net.Listener, error) { return v.inj.inner.Listen(addr) }

// Dial numbers the attempt, draws its fault verdict, and either refuses,
// hands back the raw connection, or wraps it in a faultConn.
func (v *view) Dial(addr string) (net.Conn, error) {
	verdict := v.inj.decide(v.key, v.attempt.Add(1))
	if verdict.refuse {
		v.inj.refused.Inc()
		return nil, &net.OpError{Op: "dial", Net: "fault", Err: ErrInjectedRefuse}
	}
	conn, err := v.inj.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	if verdict.clean() {
		return conn, nil
	}
	return &faultConn{Conn: conn, inj: v.inj, verdict: verdict}, nil
}

// verdict is one attempt's fault outcome, fully determined at Dial time.
type verdict struct {
	refuse    bool
	slowloris bool
	latency   time.Duration
	cutoff    int64 // stop delivering at this byte offset; -1 = never (0 = reset before any byte)
	corruptAt int64 // start flipping bytes at this offset; -1 = never
}

func (d verdict) clean() bool {
	return !d.slowloris && d.latency == 0 && d.cutoff < 0 && d.corruptAt < 0
}

// decide draws the verdict for (key, attempt). Draws happen in a fixed
// order from a PRF-seeded stream so the verdict depends only on the
// arguments and the plan.
func (inj *Injector) decide(key string, attempt int64) verdict {
	rng := prf(inj.seed, key, attempt)
	d := verdict{cutoff: -1, corruptAt: -1}
	if span := inj.plan.LatencyMaxMS - inj.plan.LatencyMinMS; inj.plan.LatencyMaxMS > 0 {
		ms := inj.plan.LatencyMinMS
		if span > 0 {
			ms += rng.IntN(span + 1)
		}
		d.latency = time.Duration(ms) * time.Millisecond
	}
	if rng.Bool(inj.plan.DialRefuse) {
		d.refuse = true
		return d
	}
	if rng.Bool(inj.plan.SlowLoris) {
		d.slowloris = true
		return d
	}
	if rng.Bool(inj.plan.Reset) {
		d.cutoff = 0
	} else if rng.Bool(inj.plan.Truncate) {
		// Cut somewhere past the response header but, for realistic
		// bodies, well before the end.
		d.cutoff = 64 + rng.Int64N(4<<10)
	}
	if rng.Bool(inj.plan.Corrupt) {
		// Flip a burst after the header region so status parsing
		// succeeds and the damage lands where only content hashes can
		// catch it.
		d.corruptAt = 256 + rng.Int64N(2<<10)
	}
	return d
}

// prf derives an independent PCG stream for (seed, key, attempt) via
// FNV-1a. Two salted hashes give the generator its two seed words.
func prf(seed uint64, key string, attempt int64) *stats.RNG {
	word := func(salt byte) uint64 {
		h := fnv.New64a()
		var buf [17]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(seed >> (8 * i))
			buf[8+i] = byte(uint64(attempt) >> (8 * i))
		}
		buf[16] = salt
		h.Write(buf[:])
		h.Write([]byte(key))
		return h.Sum64()
	}
	return stats.NewRNG(word(0x51), word(0xA7))
}

// faultConn degrades the client side of one connection according to its
// verdict. Reads are counted by absolute offset, so truncation and
// corruption hit fixed stream positions regardless of read sizing.
type faultConn struct {
	net.Conn
	inj     *Injector
	verdict verdict

	mu           sync.Mutex
	pos          int64     // bytes delivered so far; guarded by mu
	delayed      bool      // latency already applied; guarded by mu
	resetFired   bool      // reset/truncate already counted; guarded by mu
	corruptFired bool      // corruption already counted; guarded by mu
	readDeadline time.Time // guarded by mu
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.verdict.slowloris {
		return 0, c.stall()
	}
	c.mu.Lock()
	if !c.delayed {
		c.delayed = true
		if c.verdict.latency > 0 {
			c.inj.delayedUS.ObserveDuration(c.verdict.latency)
			c.mu.Unlock()
			time.Sleep(c.verdict.latency)
			c.mu.Lock()
		}
	}
	if c.verdict.cutoff >= 0 {
		remaining := c.verdict.cutoff - c.pos
		if remaining <= 0 {
			if !c.resetFired {
				c.resetFired = true
				if c.verdict.cutoff == 0 {
					c.inj.resets.Inc()
				} else {
					c.inj.truncated.Inc()
				}
			}
			c.mu.Unlock()
			return 0, &net.OpError{Op: "read", Net: "fault", Err: ErrInjectedReset}
		}
		if int64(len(p)) > remaining {
			p = p[:remaining]
		}
	}
	start := c.pos
	c.mu.Unlock()

	n, err := c.Conn.Read(p)

	c.mu.Lock()
	c.pos = start + int64(n)
	if n > 0 && c.verdict.corruptAt >= 0 {
		corruptSpan(p[:n], start, c.verdict.corruptAt)
		if start+int64(n) > c.verdict.corruptAt && !c.corruptFired {
			c.corruptFired = true
			c.inj.corrupted.Inc()
		}
	}
	c.mu.Unlock()
	return n, err
}

// stall implements the slow-loris peer: the connection is up but no bytes
// ever arrive. The stall honors the victim's read deadline (or maxStall
// when none is set) and reports the same timeout a real socket would.
func (c *faultConn) stall() error {
	c.mu.Lock()
	deadline := c.readDeadline
	fired := c.resetFired
	c.resetFired = true
	c.mu.Unlock()
	if !fired {
		c.inj.stalled.Inc()
	}
	wait := maxStall
	if !deadline.IsZero() {
		if d := time.Until(deadline); d < wait {
			wait = d
		}
	}
	if wait > 0 {
		time.Sleep(wait)
	}
	return os.ErrDeadlineExceeded
}

// corruptLen is the length of the injected corruption burst.
const corruptLen = 16

// corruptSpan flips the corruption burst inside p, whose first byte sits
// at absolute stream offset start. Damage is a pure function of absolute
// position, so read sizing cannot change the corrupted bytes.
func corruptSpan(p []byte, start, corruptAt int64) {
	for i := range p {
		abs := start + int64(i)
		if abs >= corruptAt && abs < corruptAt+corruptLen {
			p[i] ^= 0x5A
		}
	}
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}
