package gnutella

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/guid"
	"p2pmalware/internal/p2p"
)

// hostileTarget builds an ultrapeer with one honest leaf; after each attack
// the caller verifies honest service still works.
func hostileTarget(t *testing.T) (*p2p.Mem, *Node, func()) {
	t.Helper()
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "up:1",
		AdvertiseIP: net.IPv4(5, 9, 30, 1), AdvertisePort: 6346})
	if err := up.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { up.Close() })

	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("healthy canary file.exe", []byte("ok")))
	leaf := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "leaf:1",
		AdvertiseIP: net.IPv4(5, 9, 30, 2), AdvertisePort: 6346, Library: lib})
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaf.Close() })
	if err := leaf.Connect("up:1"); err != nil {
		t.Fatal(err)
	}

	verify := func() {
		t.Helper()
		var mu sync.Mutex
		got := 0
		searcher := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "verify:1",
			AdvertiseIP: net.IPv4(5, 9, 30, 3), AdvertisePort: 6346,
			OnQueryHit: func(qh *QueryHit, m *Message) {
				mu.Lock()
				got++
				mu.Unlock()
			}})
		if err := searcher.Start(); err != nil {
			t.Fatal(err)
		}
		defer searcher.Close()
		if err := searcher.Connect("up:1"); err != nil {
			t.Fatalf("node no longer accepts honest peers: %v", err)
		}
		time.Sleep(30 * time.Millisecond)
		deadline := time.Now().Add(3 * time.Second)
		for {
			searcher.Query("healthy canary", "")
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			ok := got > 0
			mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("node stopped answering honest queries after attack")
			}
		}
	}
	return mem, up, verify
}

func hostileConn(t *testing.T, mem *p2p.Mem) net.Conn {
	t.Helper()
	c, err := mem.Dial("up:1")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSurvivesGarbageBytes(t *testing.T) {
	mem, _, verify := hostileTarget(t)
	c := hostileConn(t, mem)
	c.Write([]byte("\x00\xFF\x13\x37 complete garbage not a protocol at all"))
	c.Close()
	verify()
}

func TestSurvivesOversizedDescriptor(t *testing.T) {
	mem, _, verify := hostileTarget(t)
	c := hostileConn(t, mem)
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "evil", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Claim a 16MB payload.
	var hdr [HeaderSize]byte
	g := guid.New()
	copy(hdr[:16], g[:])
	hdr[16] = byte(MsgQuery)
	hdr[17] = 3
	binary.LittleEndian.PutUint32(hdr[19:], 16<<20)
	c.Write(hdr[:])
	c.Close()
	verify()
}

func TestSurvivesTruncatedDescriptor(t *testing.T) {
	mem, _, verify := hostileTarget(t)
	c := hostileConn(t, mem)
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "evil", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Declare a 100-byte query but send only 10 bytes, then vanish.
	var hdr [HeaderSize]byte
	g := guid.New()
	copy(hdr[:16], g[:])
	hdr[16] = byte(MsgQuery)
	hdr[17] = 3
	binary.LittleEndian.PutUint32(hdr[19:], 100)
	c.Write(hdr[:])
	c.Write(make([]byte, 10))
	c.Close()
	verify()
}

func TestSurvivesMalformedPayloads(t *testing.T) {
	mem, _, verify := hostileTarget(t)
	c := hostileConn(t, mem)
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "evil", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	fc := newWireConnFrom(c, br)
	// Query with unterminated criteria (no null).
	fc.Write(&Message{GUID: guid.New(), Type: MsgQuery, TTL: 3, Payload: []byte{0, 0, 'a', 'b', 'c'}})
	// Push too short.
	fc.Write(&Message{GUID: guid.New(), Type: MsgPush, TTL: 3, Payload: []byte{1, 2, 3}})
	// QRP patch with absurd table size.
	fc.Write(&Message{GUID: guid.New(), Type: MsgRouteTable, TTL: 1, Payload: []byte{0x00, 0xFF, 0xFF, 0xFF, 0x7F, 2}})
	// Unknown descriptor type must simply be ignored.
	fc.Write(&Message{GUID: guid.New(), Type: MsgType(0x77), TTL: 1, Payload: []byte("???")})
	time.Sleep(50 * time.Millisecond)
	c.Close()
	verify()
}

func TestSurvivesQueryHitForgery(t *testing.T) {
	// A hostile peer sends query hits for queries that never existed; the
	// node must drop them (no route) without damage.
	mem, _, verify := hostileTarget(t)
	c := hostileConn(t, mem)
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "evil", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	fc := newWireConnFrom(c, br)
	qh := QueryHit{Port: 1, IP: net.IPv4(6, 6, 6, 6), Hits: []Hit{{Index: 1, Size: 666, Name: "forged.exe"}}, ServentID: guid.New()}
	payload, _ := qh.Encode()
	for i := 0; i < 50; i++ {
		fc.Write(&Message{GUID: guid.New(), Type: MsgQueryHit, TTL: 5, Payload: payload})
	}
	time.Sleep(50 * time.Millisecond)
	c.Close()
	verify()
}

func TestSurvivesHandshakeThenSilence(t *testing.T) {
	mem, up, verify := hostileTarget(t)
	c := hostileConn(t, mem)
	br := bufio.NewReader(c)
	if _, err := ClientHandshake(c, br, HandshakeOptions{Ultrapeer: true, UserAgent: "sloth", Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Hold the connection open silently; the node must keep serving. The
	// server registers the peer only after reading the final handshake
	// ack, so allow a moment for that.
	defer c.Close()
	waitFor(t, func() bool {
		peers, _ := up.NumPeers()
		return peers > 0
	})
	verify()
}
