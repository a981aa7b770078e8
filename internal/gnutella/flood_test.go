package gnutella

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/guid"
	"p2pmalware/internal/p2p"
)

// TestUltrapeerDeliversLastHopToLeaves pins the last-hop rule: a query
// that reaches an ultrapeer only with TTL 1 — its first copy came the long
// way round the ultrapeer mesh — is still handed to the ultrapeer's
// QRP-matching leaves, their hits route back, and a push for such a hit,
// which crosses the same ultrapeers, still reaches the leaf.
func TestUltrapeerDeliversLastHopToLeaves(t *testing.T) {
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up:1",
		AdvertiseIP: net.IPv4(5, 9, 50, 1), AdvertisePort: 6346})
	if err := up.Start(); err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("last hop file.exe", []byte("x")))
	leaf := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "leaf:1",
		AdvertiseIP: net.IPv4(5, 9, 50, 2), AdvertisePort: 6346, Library: lib})
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if err := leaf.Connect("up:1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return up.QRPReadyLeaves() == 1 })

	// A raw ultrapeer neighbour forwards the query with its last unit of
	// TTL, as the third ultrapeer on a path would.
	c, err := mem.Dial("up:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "mesh", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	fc := newWireConnFrom(c, br)
	g := guid.New()
	if err := fc.Write(&Message{GUID: g, Type: MsgQuery, TTL: 1, Hops: 3, Payload: Query{Criteria: "last hop"}.Encode()}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	var qh QueryHit
	for {
		m, err := fc.Read()
		if err != nil {
			t.Fatalf("no query hit from the leaf behind a TTL-1 ultrapeer: %v", err)
		}
		if m.Type == MsgQueryHit && m.GUID == g {
			if qh, err = ParseQueryHit(m.Payload); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if qh.Hits[0].Name != "last hop file.exe" {
		t.Fatalf("hit = %+v", qh.Hits[0])
	}

	// The push for that hit arrives with its last unit of TTL as well.
	l, err := mem.Listen("5.9.50.9:6346")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	push := Push{ServentID: qh.ServentID, Index: qh.Hits[0].Index, IP: net.IPv4(5, 9, 50, 9), Port: 6346}
	if err := fc.Write(&Message{GUID: guid.New(), Type: MsgPush, TTL: 1, Hops: 3, Payload: push.Encode()}); err != nil {
		t.Fatal(err)
	}
	called := make(chan net.Conn, 1)
	go func() {
		if cb, err := l.Accept(); err == nil {
			called <- cb
		}
	}()
	select {
	case cb := <-called:
		defer cb.Close()
		line, err := bufio.NewReader(cb).ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "GIV ") {
			t.Fatalf("push callback sent %q, %v; want a GIV line", line, err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a push arriving at TTL 1 never reached the leaf")
	}
}

// floodPeer returns an unstarted peer connection on a node whose universe
// keeps a flood ledger, plus the remote end of its pipe.
func floodPeer(t *testing.T) (*Node, *peerConn, net.Conn) {
	t.Helper()
	n := NewNode(Config{Transport: p2p.NewMem()})
	local, remote := net.Pipe()
	t.Cleanup(func() { local.Close(); remote.Close() })
	return n, newPeerConn(local, bufio.NewReader(local), n.floods, &HandshakeInfo{}, false), remote
}

func floodQuery(g guid.GUID) *Message {
	return &Message{GUID: g, Type: MsgQuery, TTL: DefaultTTL, Payload: Query{Criteria: "flood accounting"}.Encode()}
}

func completed(f *p2p.Flood) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

// TestFloodDropPathsRetire pins that every path on which a counted
// descriptor never reaches its receiver retires it: a closed peer, a full
// queue, a queue drained at shutdown, a failed write, a descriptor queued
// behind a bye, and a descriptor the receiver had buffered but never
// handled.
func TestFloodDropPathsRetire(t *testing.T) {
	g := guid.New()
	cases := []struct {
		name string
		run  func(t *testing.T, n *Node, pc *peerConn, remote net.Conn)
	}{
		{"closed peer", func(t *testing.T, _ *Node, pc *peerConn, _ net.Conn) {
			pc.Close()
			if err := pc.Send(floodQuery(g)); err != p2p.ErrLinkClosed {
				t.Fatalf("send = %v, want ErrLinkClosed", err)
			}
		}},
		{"full queue", func(t *testing.T, _ *Node, pc *peerConn, _ net.Conn) {
			for i := 0; i < p2p.SendQueueCap; i++ {
				if err := pc.Send(&Message{Type: MsgPing}); err != nil {
					t.Fatal(err)
				}
			}
			if err := pc.Send(floodQuery(g)); err != p2p.ErrQueueFull {
				t.Fatalf("send = %v, want ErrQueueFull", err)
			}
		}},
		{"drained at shutdown", func(t *testing.T, _ *Node, pc *peerConn, _ net.Conn) {
			if err := pc.Send(floodQuery(g)); err != nil {
				t.Fatal(err)
			}
			pc.Close() // drains the queue
		}},
		{"failed write", func(t *testing.T, _ *Node, pc *peerConn, remote net.Conn) {
			remote.Close()
			if err := pc.Send(floodQuery(g)); err != nil {
				t.Fatal(err)
			}
			pc.WriteLoop() // the flush fails: nothing reached the peer
		}},
		{"queued behind a bye", func(t *testing.T, _ *Node, pc *peerConn, remote net.Conn) {
			go io.Copy(io.Discard, remote)
			bye := &Message{GUID: guid.New(), Type: MsgBye, TTL: 1, Payload: Bye{Code: 200, Reason: "done"}.Encode()}
			if err := pc.SendLast(bye); err != nil {
				t.Fatal(err)
			}
			if err := pc.Send(floodQuery(g)); err != nil {
				t.Fatal(err)
			}
			pc.WriteLoop() // flushes the bye, shuts down, drains the query
			select {
			case <-pc.Done():
			default:
				t.Fatal("the link outlived its bye")
			}
		}},
		{"buffered but unhandled", func(t *testing.T, n *Node, _ *peerConn, _ net.Conn) {
			// Two whole queries arrive in one read; the handler fails on
			// the first, so the second is still buffered when the loop
			// stops.
			var wire bytes.Buffer
			w := &wireConn{bw: bufio.NewWriter(&wire)}
			for i := 0; i < 2; i++ {
				if err := w.Write(floodQuery(g)); err != nil {
					t.Fatal(err)
				}
				n.floods.Sent(p2p.FloodID(g)) // the sender's count
			}
			pc := newPeerConn(nopConn{}, bufio.NewReader(&wire), n.floods, &HandshakeInfo{}, false)
			handled := 0
			pc.Serve(func(*Message) error {
				handled++
				return errors.New("handler failed")
			})
			if handled != 1 {
				t.Fatalf("handled %d descriptors, want 1", handled)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, pc, remote := floodPeer(t)
			f := n.floods.Open(p2p.FloodID(g))
			c.run(t, n, pc, remote)
			f.Release()
			if !completed(f) {
				t.Fatal("the dropped descriptor was not retired")
			}
		})
	}
}

// TestFloodCompletesWhenPeerKilledMidFlood kills an ultrapeer while one of
// its leaves is still handling the query: the leaf's hit can no longer be
// routed, but every message of the flood is still accounted for, so the
// flood completes, with the hits that did route back.
func TestFloodCompletesWhenPeerKilledMidFlood(t *testing.T) {
	mem := p2p.NewMem()
	up1 := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up1:1",
		AdvertiseIP: net.IPv4(5, 9, 51, 1), AdvertisePort: 6346})
	up2 := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up2:1",
		AdvertiseIP: net.IPv4(5, 9, 51, 2), AdvertisePort: 6346})
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
	lib.Add(p2p.StaticFile("mid flood file.exe", []byte("x")))
	near := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "near:1",
		AdvertiseIP: net.IPv4(5, 9, 51, 3), AdvertisePort: 6346, Library: lib})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	far := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "far:1",
		AdvertiseIP: net.IPv4(5, 9, 51, 4), AdvertisePort: 6346, PromiscuousQRP: true,
		QueryResponder: func(q *Query, m *Message) []Hit {
			entered <- struct{}{}
			<-release
			return []Hit{{Index: 1, Size: 1, Name: "mid flood late.exe"}}
		}})
	for addr, n := range map[string]*Node{"up1:1": near, "up2:1": far} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.Connect(addr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return up1.QRPReadyLeaves() == 1 && up2.QRPReadyLeaves() == 1 })

	var mu sync.Mutex
	var names []string
	client := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "client:1",
		AdvertiseIP: net.IPv4(5, 9, 51, 5), AdvertisePort: 6346,
		OnQueryHit: func(qh *QueryHit, m *Message) {
			mu.Lock()
			for _, h := range qh.Hits {
				names = append(names, h.Name)
			}
			mu.Unlock()
		}})
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Connect("up1:1"); err != nil {
		t.Fatal(err)
	}

	g := guid.New()
	f := mem.Floods().Open(p2p.FloodID(g))
	if err := client.QueryWith(g, "mid flood", ""); err != nil {
		t.Fatal(err)
	}
	f.Release()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the query never reached the far leaf")
	}
	killed := make(chan struct{})
	go func() {
		up2.Close()
		close(killed)
	}()
	waitFor(t, func() bool { peers, _ := up1.NumPeers(); return peers == 0 })
	close(release)
	select {
	case <-f.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("flood never completed after an ultrapeer died mid-flood")
	}
	<-killed
	mu.Lock()
	defer mu.Unlock()
	if len(names) != 1 || names[0] != "mid flood file.exe" {
		t.Fatalf("hits = %v, want only the near leaf's", names)
	}
}

// TestFloodSendPathZeroAllocs pins the `// lint:hotpath` contract on the
// per-descriptor flood path: counting a descriptor into a peer's queue,
// and counting and dropping it at a full queue, allocate nothing. Each
// path is measured on its own, so one allocation per send on either shows;
// the link's own test measures taking a frame back off the queue. Closing
// the peer then retires every count.
func TestFloodSendPathZeroAllocs(t *testing.T) {
	n, pc, _ := floodPeer(t)
	g := guid.New()
	f := n.floods.Open(p2p.FloodID(g))
	m := floodQuery(g)
	send := func(want error) func() {
		return func() {
			if err := pc.Send(m); !errors.Is(err, want) {
				t.Fatalf("Send = %v, want %v", err, want)
			}
		}
	}
	// AllocsPerRun adds one warm-up call, so these runs fill the queue.
	if allocs := testing.AllocsPerRun(p2p.SendQueueCap-1, send(nil)); allocs != 0 {
		t.Fatalf("queued send allocs = %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, send(p2p.ErrQueueFull)); allocs != 0 {
		t.Fatalf("dropped send allocs = %v, want 0", allocs)
	}
	pc.Close() // drains the queue
	f.Release()
	if !completed(f) {
		t.Fatal("queued and dropped descriptors were not all retired")
	}
}
