// Package ipaddr classifies IPv4 addresses into the address classes used by
// the measurement study (public, RFC1918 private, loopback, link-local,
// reserved/bogon) and synthesizes host address populations with a chosen
// class mix.
//
// The study's source analysis hinges on classifying the source address of
// every query response: the paper reports that 28% of malicious LimeWire
// responses advertised sources in private address ranges, which can never be
// directly reachable across the Internet.
package ipaddr

import (
	"fmt"
	"net"
	"sort"
)

// Class is an address-space classification.
type Class int

// Address classes, from most to least routable.
const (
	// Public is globally routable unicast space.
	Public Class = iota
	// Private is RFC1918 space (10/8, 172.16/12, 192.168/16).
	Private
	// Loopback is 127/8.
	Loopback
	// LinkLocal is 169.254/16 (APIPA).
	LinkLocal
	// Reserved covers 0/8, 240/4, multicast 224/4, and 255.255.255.255.
	Reserved
	// Invalid marks non-IPv4 or nil addresses.
	Invalid
)

var classNames = map[Class]string{
	Public:    "public",
	Private:   "private",
	Loopback:  "loopback",
	LinkLocal: "link-local",
	Reserved:  "reserved",
	Invalid:   "invalid",
}

// String returns the lower-case name of the class.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Routable reports whether addresses of this class can be reached across the
// public Internet.
func (c Class) Routable() bool { return c == Public }

var (
	net10      = mustCIDR("10.0.0.0/8")
	net172     = mustCIDR("172.16.0.0/12")
	net192     = mustCIDR("192.168.0.0/16")
	netLoop    = mustCIDR("127.0.0.0/8")
	netLink    = mustCIDR("169.254.0.0/16")
	netZero    = mustCIDR("0.0.0.0/8")
	netMcast   = mustCIDR("224.0.0.0/4")
	netClassE  = mustCIDR("240.0.0.0/4")
	privateNet = []*net.IPNet{net10, net172, net192}
)

func mustCIDR(s string) *net.IPNet {
	_, n, err := net.ParseCIDR(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Classify returns the address class of ip.
func Classify(ip net.IP) Class {
	v4 := ip.To4()
	if v4 == nil {
		return Invalid
	}
	switch {
	case netLoop.Contains(v4):
		return Loopback
	case netLink.Contains(v4):
		return LinkLocal
	case netZero.Contains(v4), netMcast.Contains(v4), netClassE.Contains(v4):
		return Reserved
	}
	for _, n := range privateNet {
		if n.Contains(v4) {
			return Private
		}
	}
	return Public
}

// IsPrivate reports whether ip lies in RFC1918 space.
func IsPrivate(ip net.IP) bool { return Classify(ip) == Private }

// ParseV4 parses a dotted-quad IPv4 address, returning an error for anything
// else (including IPv6 and empty strings).
func ParseV4(s string) (net.IP, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		return nil, fmt.Errorf("ipaddr: %q is not an IP address", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return nil, fmt.Errorf("ipaddr: %q is not IPv4", s)
	}
	return v4, nil
}

// U32 converts an IPv4 address to its 32-bit big-endian integer form.
// It returns 0 for non-IPv4 input.
func U32(ip net.IP) uint32 {
	v4 := ip.To4()
	if v4 == nil {
		return 0
	}
	return uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
}

// FromU32 converts a 32-bit big-endian integer to an IPv4 address.
func FromU32(v uint32) net.IP {
	return net.IPv4(byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Pool allocates distinct IPv4 addresses from a set of CIDR ranges,
// round-robin across ranges, skipping network and broadcast addresses.
// It is used to synthesize host populations with a controlled mix of
// address classes. Pool is not safe for concurrent use.
type Pool struct {
	ranges []poolRange
	next   int
}

type poolRange struct {
	base   uint32
	size   uint32 // number of allocatable host addresses
	cursor uint32
}

// NewPool returns a pool drawing from the given CIDR ranges. At least one
// range is required, and each range must contain at least one allocatable
// host address.
func NewPool(cidrs ...string) (*Pool, error) {
	if len(cidrs) == 0 {
		return nil, fmt.Errorf("ipaddr: pool needs at least one range")
	}
	p := &Pool{}
	for _, c := range cidrs {
		_, n, err := net.ParseCIDR(c)
		if err != nil {
			return nil, fmt.Errorf("ipaddr: bad pool range %q: %w", c, err)
		}
		ones, bits := n.Mask.Size()
		if bits != 32 {
			return nil, fmt.Errorf("ipaddr: pool range %q is not IPv4", c)
		}
		total := uint32(1) << (32 - ones)
		base := U32(n.IP)
		var size uint32
		switch {
		case total >= 4:
			// Skip network (.0) and broadcast (.max).
			base++
			size = total - 2
		default:
			size = total
		}
		if size == 0 {
			return nil, fmt.Errorf("ipaddr: pool range %q has no host addresses", c)
		}
		p.ranges = append(p.ranges, poolRange{base: base, size: size})
	}
	return p, nil
}

// Next allocates the next unused address, cycling round-robin across the
// pool's ranges. It returns an error once every address has been handed out.
func (p *Pool) Next() (net.IP, error) {
	for tries := 0; tries < len(p.ranges); tries++ {
		r := &p.ranges[p.next]
		p.next = (p.next + 1) % len(p.ranges)
		if r.cursor < r.size {
			ip := FromU32(r.base + r.cursor)
			r.cursor++
			return ip, nil
		}
	}
	return nil, fmt.Errorf("ipaddr: pool exhausted")
}

// Remaining returns the number of addresses still allocatable.
func (p *Pool) Remaining() int {
	var n uint64
	for _, r := range p.ranges {
		n += uint64(r.size - r.cursor)
	}
	return int(n)
}

// ClassMix describes the share of each class in a mixed allocation. Shares
// need not sum to 1; they are normalized. Classes with zero share are
// omitted from allocation.
type ClassMix struct {
	Public   float64
	Private  float64
	Loopback float64
}

// MixedAllocator hands out addresses drawn from public and private pools
// according to a deterministic interleaving of a ClassMix. The interleaving
// uses largest-remainder scheduling so that any prefix of the allocation
// tracks the requested mix as closely as possible.
type MixedAllocator struct {
	pools  []*Pool
	shares []float64
	debts  []float64
}

// NewMixedAllocator builds an allocator over the standard synthetic ranges:
// public draws from documentation/test ranges treated as "public" stand-ins
// plus genuinely public space, and private draws from RFC1918.
func NewMixedAllocator(mix ClassMix) (*MixedAllocator, error) {
	ma := &MixedAllocator{}
	add := func(share float64, cidrs ...string) error {
		if share <= 0 {
			return nil
		}
		p, err := NewPool(cidrs...)
		if err != nil {
			return err
		}
		ma.pools = append(ma.pools, p)
		ma.shares = append(ma.shares, share)
		ma.debts = append(ma.debts, 0)
		return nil
	}
	// Spread public allocations across several disjoint routable /16s so the
	// synthetic population does not cluster in a single prefix.
	if err := add(mix.Public,
		"5.9.0.0/16", "24.16.0.0/16", "62.30.0.0/16", "81.100.0.0/16",
		"128.211.0.0/16", "152.3.0.0/16", "199.77.0.0/16", "216.27.0.0/16"); err != nil {
		return nil, err
	}
	if err := add(mix.Private, "10.0.0.0/16", "192.168.0.0/16", "172.16.0.0/16"); err != nil {
		return nil, err
	}
	if err := add(mix.Loopback, "127.0.0.0/16"); err != nil {
		return nil, err
	}
	if len(ma.pools) == 0 {
		return nil, fmt.Errorf("ipaddr: mix has no positive shares")
	}
	var sum float64
	for _, s := range ma.shares {
		sum += s
	}
	for i := range ma.shares {
		ma.shares[i] /= sum
	}
	return ma, nil
}

// Next allocates the next address, choosing the pool with the largest
// accumulated share debt. The resulting stream deterministically interleaves
// classes in proportion to the mix.
func (ma *MixedAllocator) Next() (net.IP, error) {
	for i := range ma.debts {
		ma.debts[i] += ma.shares[i]
	}
	order := make([]int, len(ma.pools))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ma.debts[order[a]] > ma.debts[order[b]] })
	for _, i := range order {
		if ma.pools[i].Remaining() == 0 {
			continue
		}
		ip, err := ma.pools[i].Next()
		if err != nil {
			continue
		}
		ma.debts[i] -= 1
		return ip, nil
	}
	return nil, fmt.Errorf("ipaddr: all pools exhausted")
}
