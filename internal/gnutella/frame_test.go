package gnutella

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"p2pmalware/internal/guid"
)

// TestInfoFromHeadersMalformedListenIP covers the strconv port parse:
// hostile or buggy peers send junk Listen-IP headers, and none of them may
// poison the advertised endpoint (the old fmt.Sscanf parse mapped partial
// or out-of-range numbers to nonsense ports).
func TestInfoFromHeadersMalformedListenIP(t *testing.T) {
	cases := []struct {
		name     string
		header   string
		wantIP   net.IP
		wantPort uint16
	}{
		{"valid", "10.1.2.3:6346", net.IPv4(10, 1, 2, 3), 6346},
		{"valid max port", "10.1.2.3:65535", net.IPv4(10, 1, 2, 3), 65535},
		{"valid min port", "10.1.2.3:1", net.IPv4(10, 1, 2, 3), 1},
		{"non-numeric port", "10.1.2.3:notaport", net.IPv4(10, 1, 2, 3), 0},
		{"trailing junk port", "10.1.2.3:6346xyz", net.IPv4(10, 1, 2, 3), 0},
		{"port overflow", "10.1.2.3:70000", net.IPv4(10, 1, 2, 3), 0},
		{"port huge", "10.1.2.3:4294973642", net.IPv4(10, 1, 2, 3), 0},
		{"negative port", "10.1.2.3:-1", net.IPv4(10, 1, 2, 3), 0},
		{"zero port", "10.1.2.3:0", net.IPv4(10, 1, 2, 3), 0},
		{"empty port", "10.1.2.3:", net.IPv4(10, 1, 2, 3), 0},
		{"no port at all", "10.1.2.3", nil, 0},
		{"pure garbage", "garbage", nil, 0},
		{"empty host", ":6346", nil, 6346},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := infoFromHeaders(map[string]string{"listen-ip": tc.header})
			if tc.wantIP == nil {
				if info.ListenIP != nil {
					t.Errorf("ListenIP = %v, want none", info.ListenIP)
				}
			} else if !tc.wantIP.Equal(info.ListenIP) {
				t.Errorf("ListenIP = %v, want %v", info.ListenIP, tc.wantIP)
			}
			if info.ListenPort != tc.wantPort {
				t.Errorf("ListenPort = %d, want %d", info.ListenPort, tc.wantPort)
			}
		})
	}
}

// TestSplitHostPortRejectsBadPorts pins the node-side parse used for pong
// endpoints to the same rules.
func TestSplitHostPortRejectsBadPorts(t *testing.T) {
	cases := []struct {
		addr     string
		wantPort uint16
	}{
		{"10.0.0.1:6346", 6346},
		{"10.0.0.1:notaport", 0},
		{"10.0.0.1:70000", 0},
		{"10.0.0.1:-5", 0},
	}
	for _, tc := range cases {
		if _, p := splitHostPort(tc.addr); p != tc.wantPort {
			t.Errorf("splitHostPort(%q) port = %d, want %d", tc.addr, p, tc.wantPort)
		}
	}
}

// TestReadFrameNeverReusesPayload is the buffer-reuse aliasing regression
// test: a message kept past its handler (a queued forward, a collector)
// must keep its payload bytes while the connection keeps reading — i.e.
// the codec's ReadFrame must hand each descriptor a payload of its own,
// never a reader-owned buffer it will reuse. Run under -race this also
// proves the kept payload is not concurrently scribbled on.
func TestReadFrameNeverReusesPayload(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	const total = 64
	errc := make(chan error, 1)
	go func() {
		w := newWireConn(c1)
		for i := 0; i < total; i++ {
			m := &Message{GUID: guid.New(), Type: MsgQuery, TTL: 4, Payload: Query{Criteria: queryCriteria(i)}.Encode()}
			if err := w.Write(m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()

	r := newWireConn(c2)
	var kept []*Message
	for i := 0; i < total; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if i%8 == 0 {
			kept = append(kept, m) // like a queued forward
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("writer: %v", err)
	}
	for j, m := range kept {
		q, err := ParseQuery(m.Payload)
		if err != nil {
			t.Fatalf("kept message %d corrupted: %v", j, err)
		}
		if want := queryCriteria(j * 8); q.Criteria != want {
			t.Errorf("kept message %d criteria = %q, want %q (payload aliased by a later read)", j, q.Criteria, want)
		}
	}
}

func queryCriteria(i int) string {
	return "unique query payload number " + string(rune('A'+i%26)) + " seq " + itoa(int64(i))
}

// TestWriteCoalescing checks that the codec stages frames in a buffered
// writer without touching the wire until Flush, and that the flushed bytes
// frame every staged descriptor intact.
func TestWriteCoalescing(t *testing.T) {
	var wire bytes.Buffer
	srv, cli := net.Pipe()
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, err := srv.Read(buf)
			wire.Write(buf[:n])
			if err != nil {
				return
			}
		}
	}()
	fc := newWireConn(cli)
	var sent []*Message
	for i := 0; i < 3; i++ {
		m := &Message{GUID: guid.New(), Type: MsgQuery, TTL: 4, Payload: Query{Criteria: queryCriteria(i)}.Encode()}
		if err := fc.WriteBuffered(m); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		sent = append(sent, m)
	}
	if err := fc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not finish")
	}
	rd := newWireConnFrom(nopConn{}, bufio.NewReader(&wire))
	for i, want := range sent {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("reframe %d: %v", i, err)
		}
		if got.GUID != want.GUID || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("descriptor %d did not survive coalesced write", i)
		}
	}
}

// nopConn satisfies net.Conn for read-only reframing in tests.
type nopConn struct{ net.Conn }

func (nopConn) Close() error { return nil }
