package gnutella

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"p2pmalware/internal/guid"
)

// wireConn speaks raw Gnutella over an established connection with the
// node's codec, for tests that play a peer by hand. Read from one
// goroutine and serialize writes.
type wireConn struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	wire codec
}

func newWireConn(c net.Conn) *wireConn { return newWireConnFrom(c, bufio.NewReader(c)) }

// newWireConnFrom keeps reading through br, so no bytes the handshake
// buffered are lost.
func newWireConnFrom(c net.Conn, br *bufio.Reader) *wireConn {
	return &wireConn{br: br, bw: bufio.NewWriter(c)}
}

func (fc *wireConn) Read() (*Message, error) { return fc.wire.ReadFrame(fc.br) }

// WriteBuffered stages m without flushing.
func (fc *wireConn) WriteBuffered(m *Message) error {
	_, err := fc.wire.WriteFrame(fc.bw, m)
	return err
}

func (fc *wireConn) Flush() error { return fc.bw.Flush() }

func (fc *wireConn) Write(m *Message) error {
	if err := fc.WriteBuffered(m); err != nil {
		return err
	}
	return fc.Flush()
}

// handshakePair runs client+server handshakes over a pipe and returns both
// results.
func handshakePair(t *testing.T, clientOpts, serverOpts HandshakeOptions, accept func(*HandshakeInfo) bool) (clientInfo, serverInfo *HandshakeInfo, clientErr, serverErr error) {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serverInfo, serverErr = ServerHandshake(c2, bufio.NewReader(c2), serverOpts, accept)
	}()
	clientInfo, clientErr = ClientHandshake(c1, bufio.NewReader(c1), clientOpts)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handshake deadlocked")
	}
	return
}

func TestHandshakeNegotiation(t *testing.T) {
	cOpts := HandshakeOptions{Ultrapeer: false, UserAgent: "LimeWire/4.10.9", ListenAddr: "10.1.2.3:6346", Timeout: 2 * time.Second}
	sOpts := HandshakeOptions{Ultrapeer: true, UserAgent: "SimShare/1.0", ListenAddr: "5.9.0.1:6346", Timeout: 2 * time.Second}
	ci, si, cerr, serr := handshakePair(t, cOpts, sOpts, nil)
	if cerr != nil || serr != nil {
		t.Fatalf("errors: %v / %v", cerr, serr)
	}
	if !ci.Ultrapeer {
		t.Error("client did not see server's ultrapeer flag")
	}
	if si.Ultrapeer {
		t.Error("server saw phantom ultrapeer flag")
	}
	if ci.UserAgent != "SimShare/1.0" || si.UserAgent != "LimeWire/4.10.9" {
		t.Errorf("user agents: %q / %q", ci.UserAgent, si.UserAgent)
	}
	if !si.ListenIP.Equal(net.IPv4(10, 1, 2, 3)) || si.ListenPort != 6346 {
		t.Errorf("server parsed listen addr %v:%d", si.ListenIP, si.ListenPort)
	}
	if si.Headers["x-query-routing"] != "0.1" {
		t.Errorf("headers = %v", si.Headers)
	}
}

func TestHandshakeRejection(t *testing.T) {
	opts := HandshakeOptions{UserAgent: "x", Timeout: 2 * time.Second}
	_, _, cerr, serr := handshakePair(t, opts, opts, func(*HandshakeInfo) bool { return false })
	if cerr == nil {
		t.Fatal("client handshake succeeded against rejecting server")
	}
	if serr != ErrHandshakeRejected {
		t.Fatalf("server err = %v", serr)
	}
	if !strings.Contains(cerr.Error(), "503") {
		t.Fatalf("client err = %v, want 503", cerr)
	}
}

func TestServerHandshakeRejectsGarbage(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(c2, bufio.NewReader(c2), HandshakeOptions{Timeout: time.Second}, nil)
		errCh <- err
	}()
	c1.Write([]byte("HTTP/1.1 GET /nothing\r\n\r\n"))
	if err := <-errCh; err == nil {
		t.Fatal("garbage connect line accepted")
	}
}

func TestHandshakeHeaderLimit(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(c2, bufio.NewReader(c2), HandshakeOptions{Timeout: 2 * time.Second}, nil)
		errCh <- err
	}()
	go func() {
		c1.Write([]byte(connectLine + "\r\n"))
		big := "X-Pad: " + strings.Repeat("a", 1024) + "\r\n"
		for i := 0; i < 64; i++ {
			if _, err := c1.Write([]byte(big)); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("err = %v, want header-limit error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversized headers not rejected")
	}
}

func TestConnFraming(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a, b := newWireConn(c1), newWireConn(c2)
	msgs := []*Message{
		{GUID: guid.New(), Type: MsgPing, TTL: 1},
		{GUID: guid.New(), Type: MsgQuery, TTL: 4, Hops: 2, Payload: Query{Criteria: "hello world"}.Encode()},
		{GUID: guid.New(), Type: MsgPong, TTL: 3, Payload: Pong{Port: 6346, IP: net.IPv4(1, 2, 3, 4)}.Encode()},
	}
	go func() {
		for _, m := range msgs {
			a.Write(m)
		}
	}()
	for i, want := range msgs {
		got, err := b.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.GUID != want.GUID || got.Type != want.Type || got.TTL != want.TTL ||
			got.Hops != want.Hops || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("message %d mismatch: %+v vs %+v", i, got, want)
		}
	}
}

func TestConnRejectsOversizedPayload(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a := newWireConn(c1)
	if err := a.Write(&Message{GUID: guid.New(), Type: MsgQuery, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Fatal("oversized write accepted")
	}
	// Hand-craft an oversized header on the wire; the reader must refuse.
	go func() {
		hdr := make([]byte, HeaderSize)
		hdr[16] = byte(MsgQuery)
		hdr[19] = 0xFF
		hdr[20] = 0xFF
		hdr[21] = 0xFF
		hdr[22] = 0x00 // ~16MB
		c1.Write(hdr)
	}()
	b := newWireConn(c2)
	if _, err := b.Read(); err == nil {
		t.Fatal("oversized read accepted")
	}
}

func TestConnClampsTTL(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go newWireConn(c1).Write(&Message{GUID: guid.New(), Type: MsgPing, TTL: 50})
	got, err := newWireConn(c2).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != MaxTTL {
		t.Fatalf("TTL = %d, want clamped to %d", got.TTL, MaxTTL)
	}
}

func TestQuickConnRoundTrip(t *testing.T) {
	f := func(ttl, hops byte, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		c1, c2 := net.Pipe()
		defer c1.Close()
		defer c2.Close()
		m := &Message{GUID: guid.New(), Type: MsgQueryHit, TTL: ttl, Hops: hops, Payload: payload}
		go newWireConn(c1).Write(m)
		got, err := newWireConn(c2).Read()
		if err != nil {
			return false
		}
		wantTTL := ttl
		if wantTTL > MaxTTL {
			wantTTL = MaxTTL
		}
		return got.GUID == m.GUID && got.TTL == wantTTL && got.Hops == hops &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteTableLRU(t *testing.T) {
	rt := newRouteTable(4)
	pcs := make([]*peerConn, 6)
	guids := make([]guid.GUID, 6)
	for i := range pcs {
		pcs[i] = &peerConn{}
		guids[i] = guid.New()
		if !rt.add(guids[i], pcs[i]) {
			t.Fatalf("add %d reported duplicate", i)
		}
	}
	// Oldest two evicted.
	if rt.lookup(guids[0]) != nil || rt.lookup(guids[1]) != nil {
		t.Fatal("LRU did not evict")
	}
	if rt.lookup(guids[5]) != pcs[5] {
		t.Fatal("recent entry lost")
	}
	// Duplicate add does not reroute.
	other := &peerConn{}
	if rt.add(guids[5], other) {
		t.Fatal("duplicate add succeeded")
	}
	if rt.lookup(guids[5]) != pcs[5] {
		t.Fatal("duplicate add rerouted")
	}
}

func TestRouteTableDropPeer(t *testing.T) {
	rt := newRouteTable(10)
	pc := &peerConn{}
	g := guid.New()
	rt.add(g, pc)
	rt.dropPeer(pc)
	if rt.lookup(g) != nil {
		t.Fatal("route survives dropped peer")
	}
	if !rt.seen(g) {
		t.Fatal("duplicate suppression lost on drop")
	}
}
