package gnutella

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// HostCache holds servent endpoints learned from pongs, the way servents
// maintained their host catchers for overlay bootstrap. Entries are capped
// and the oldest is evicted first.
type HostCache struct {
	mu    sync.Mutex
	max   int
	hosts map[string]hostEntry // guarded by mu
}

type hostEntry struct {
	ip    net.IP
	port  uint16
	seen  time.Time
	files uint32
}

// defaultHostCacheSize matches the scale of 2006-era host catchers.
const defaultHostCacheSize = 1000

// NewHostCache returns a cache holding at most max endpoints (max <= 0
// uses the default).
func NewHostCache(max int) *HostCache {
	if max <= 0 {
		max = defaultHostCacheSize
	}
	return &HostCache{max: max, hosts: make(map[string]hostEntry)}
}

// Add records an endpoint. Unroutable endpoints (private, loopback) are
// accepted — advertised pongs really did carry them — but callers can
// filter on retrieval.
func (hc *HostCache) Add(ip net.IP, port uint16, files uint32, now time.Time) {
	if ip == nil || ip.To4() == nil || port == 0 {
		return
	}
	key := fmt.Sprintf("%s:%d", ip, port)
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if _, ok := hc.hosts[key]; !ok && len(hc.hosts) >= hc.max {
		hc.evictOldestLocked()
	}
	hc.hosts[key] = hostEntry{ip: ip, port: port, seen: now, files: files}
}

func (hc *HostCache) evictOldestLocked() {
	var oldestKey string
	var oldest time.Time
	for k, e := range hc.hosts {
		if oldestKey == "" || e.seen.Before(oldest) {
			oldestKey, oldest = k, e.seen
		}
	}
	delete(hc.hosts, oldestKey)
}

// Len returns the number of cached endpoints.
func (hc *HostCache) Len() int {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return len(hc.hosts)
}

// Addrs returns up to n "ip:port" strings, most recently seen first
// (n <= 0 returns all).
func (hc *HostCache) Addrs(n int) []string {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	type kv struct {
		key  string
		seen time.Time
	}
	all := make([]kv, 0, len(hc.hosts))
	for k, e := range hc.hosts {
		all = append(all, kv{k, e.seen})
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].seen.Equal(all[j].seen) {
			return all[i].seen.After(all[j].seen)
		}
		return all[i].key < all[j].key
	})
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.key
	}
	return out
}

// Pongs renders up to n cached endpoints as pongs, for pong-caching
// replies.
func (hc *HostCache) Pongs(n int) []Pong {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	out := make([]Pong, 0, n)
	for _, e := range hc.hosts {
		if len(out) >= n {
			break
		}
		out = append(out, Pong{Port: e.port, IP: e.ip, Files: e.files})
	}
	return out
}

// KnownHosts returns the endpoints this node has learned from pongs.
func (n *Node) KnownHosts() []string {
	return n.hostCache.Addrs(0)
}

// Bootstrap joins the overlay through a seed: connect, ping with a
// multi-hop TTL to harvest cached pongs, then connect to up to extra more
// of the learned ultrapeers. It returns the number of additional
// connections made.
func (n *Node) Bootstrap(seed string, extra int, wait time.Duration) (int, error) {
	if err := n.Connect(seed); err != nil {
		return 0, err
	}
	n.PingTTL(2)
	// Waits on pongs arriving over real connections, so wall time.
	time.Sleep(wait)
	made := 0
	for _, addr := range n.hostCache.Addrs(0) {
		if made >= extra {
			break
		}
		if addr == seed {
			continue
		}
		if err := n.Connect(addr); err != nil {
			continue // stale or full host; try the next
		}
		made++
	}
	return made, nil
}
