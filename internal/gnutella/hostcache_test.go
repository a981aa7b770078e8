package gnutella

import (
	"net"
	"testing"
	"time"

	"p2pmalware/internal/p2p"
)

func TestHostCacheAddAndAddrs(t *testing.T) {
	hc := NewHostCache(10)
	now := time.Now()
	hc.Add(net.IPv4(1, 2, 3, 4), 6346, 10, now)
	hc.Add(net.IPv4(5, 6, 7, 8), 6347, 20, now.Add(time.Second))
	if hc.Len() != 2 {
		t.Fatalf("Len = %d", hc.Len())
	}
	addrs := hc.Addrs(0)
	if len(addrs) != 2 || addrs[0] != "5.6.7.8:6347" {
		t.Fatalf("Addrs = %v (want most recent first)", addrs)
	}
	if got := hc.Addrs(1); len(got) != 1 {
		t.Fatalf("Addrs(1) = %v", got)
	}
}

func TestHostCacheRejectsBadEndpoints(t *testing.T) {
	hc := NewHostCache(10)
	hc.Add(nil, 6346, 0, time.Now())
	hc.Add(net.ParseIP("2001:db8::1"), 6346, 0, time.Now())
	hc.Add(net.IPv4(1, 2, 3, 4), 0, 0, time.Now())
	if hc.Len() != 0 {
		t.Fatalf("bad endpoints cached: %v", hc.Addrs(0))
	}
}

func TestHostCacheEvictsOldest(t *testing.T) {
	hc := NewHostCache(3)
	base := time.Now()
	for i := 0; i < 5; i++ {
		hc.Add(net.IPv4(10, 0, 0, byte(i+1)), 6346, 0, base.Add(time.Duration(i)*time.Second))
	}
	if hc.Len() != 3 {
		t.Fatalf("Len = %d", hc.Len())
	}
	for _, a := range hc.Addrs(0) {
		if a == "10.0.0.1:6346" || a == "10.0.0.2:6346" {
			t.Fatalf("oldest entries survived: %v", hc.Addrs(0))
		}
	}
}

func TestHostCacheDedup(t *testing.T) {
	hc := NewHostCache(10)
	for i := 0; i < 5; i++ {
		hc.Add(net.IPv4(1, 1, 1, 1), 6346, 0, time.Now())
	}
	if hc.Len() != 1 {
		t.Fatalf("Len = %d", hc.Len())
	}
}

func TestHostCachePongs(t *testing.T) {
	hc := NewHostCache(10)
	hc.Add(net.IPv4(9, 9, 9, 9), 1234, 42, time.Now())
	pongs := hc.Pongs(5)
	if len(pongs) != 1 || pongs[0].Port != 1234 || pongs[0].Files != 42 {
		t.Fatalf("Pongs = %+v", pongs)
	}
}

func TestPongHarvestingAndBootstrap(t *testing.T) {
	mem := p2p.NewMem()
	// Three meshed ultrapeers.
	ups := make([]*Node, 3)
	for i := range ups {
		ip := net.IPv4(5, 9, 20, byte(i+1))
		ups[i] = NewNode(Config{Role: Ultrapeer, Transport: mem,
			ListenAddr: ip.String() + ":6346", AdvertiseIP: ip, AdvertisePort: 6346})
		if err := ups[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer ups[i].Close()
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if err := ups[i].Connect(ups[j].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fresh leaf bootstraps through ultrapeer 0 and should learn and
	// connect to the other two.
	leaf := NewNode(Config{Role: Leaf, Transport: mem,
		ListenAddr: "24.16.20.1:6346", AdvertiseIP: net.IPv4(24, 16, 20, 1), AdvertisePort: 6346})
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	made, err := leaf.Bootstrap("5.9.20.1:6346", 2, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if made != 2 {
		t.Fatalf("bootstrap made %d extra connections, want 2 (known: %v)", made, leaf.KnownHosts())
	}
	peers, _ := leaf.NumPeers()
	if peers != 3 {
		t.Fatalf("leaf has %d ultrapeer connections, want 3", peers)
	}
	if len(leaf.KnownHosts()) < 2 {
		t.Fatalf("KnownHosts = %v", leaf.KnownHosts())
	}
}

func TestPlainPingDoesNotHarvest(t *testing.T) {
	mem := p2p.NewMem()
	up1 := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "a:1",
		AdvertiseIP: net.IPv4(5, 9, 21, 1), AdvertisePort: 6346})
	up2 := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "b:1",
		AdvertiseIP: net.IPv4(5, 9, 21, 2), AdvertisePort: 6346})
	for _, n := range []*Node{up1, up2} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
	}
	up1.Connect("b:1")

	leaf := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "l:1",
		AdvertiseIP: net.IPv4(24, 16, 21, 1), AdvertisePort: 6346})
	leaf.Start()
	defer leaf.Close()
	leaf.Connect("a:1")
	leaf.PingTTL(1) // direct pong only
	time.Sleep(100 * time.Millisecond)
	for _, h := range leaf.KnownHosts() {
		if h == "5.9.21.2:6346" {
			t.Fatal("TTL-1 ping harvested neighbor pongs")
		}
	}
}
