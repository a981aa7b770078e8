package openft

import (
	"bufio"
	"bytes"
	"net"
	"testing"

	"p2pmalware/internal/p2p"
)

// floodSession returns a queued-mode session, its writer not started, on
// a node whose universe keeps a flood ledger, plus the remote end of its
// pipe.
func floodSession(t *testing.T) (*Node, *session, net.Conn) {
	t.Helper()
	n := NewNode(Config{Transport: p2p.NewMem()})
	local, remote := net.Pipe()
	t.Cleanup(func() { local.Close(); remote.Close() })
	s := newSession(n, local, bufio.NewReader(local))
	s.sendMu.Lock()
	s.direct = false
	s.sendMu.Unlock()
	return n, s, remote
}

func completed(f *p2p.Flood) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

// TestFloodDropPathsRetire pins that every path on which a counted search
// packet never reaches its receiver retires it: a closed session, a full
// queue, a queue drained at shutdown, a failed queued or direct write, and
// a packet the receiver had buffered but never handled.
func TestFloodDropPathsRetire(t *testing.T) {
	const id = 7001
	req := func() *Packet { return SearchReq{ID: id, TTL: 2, Query: "flood accounting"}.Encode() }
	cases := []struct {
		name string
		run  func(t *testing.T, s *session, remote net.Conn)
	}{
		{"closed session", func(t *testing.T, s *session, _ net.Conn) {
			s.shutdown()
			if err := s.send(req()); err != errSessionClosed {
				t.Fatalf("send = %v, want errSessionClosed", err)
			}
		}},
		{"full queue", func(t *testing.T, s *session, _ net.Conn) {
			for i := 0; i < sessionQueueCap; i++ {
				s.out <- &Packet{Cmd: CmdStatsReq}
			}
			if err := s.send(req()); err != errQueueFull {
				t.Fatalf("send = %v, want errQueueFull", err)
			}
		}},
		{"drained at shutdown", func(t *testing.T, s *session, _ net.Conn) {
			if err := s.send(req()); err != nil {
				t.Fatal(err)
			}
			s.shutdown()
			s.writeLoop() // sees the shutdown and drains its queue
		}},
		{"failed write", func(t *testing.T, s *session, remote net.Conn) {
			remote.Close()
			if err := s.send(req()); err != nil {
				t.Fatal(err)
			}
			s.writeLoop() // the flush fails: nothing reached the peer
		}},
		{"failed direct write", func(t *testing.T, s *session, remote net.Conn) {
			remote.Close()
			s.sendMu.Lock()
			s.direct = true
			s.sendMu.Unlock()
			if err := s.send(req()); err == nil {
				t.Fatal("direct write to a closed pipe succeeded")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, s, remote := floodSession(t)
			f := n.floods.Open(SearchFloodID(id))
			c.run(t, s, remote)
			f.Release()
			if !completed(f) {
				t.Fatal("the dropped search packet was not retired")
			}
		})
	}

	t.Run("buffered but unhandled", func(t *testing.T) {
		var wire bytes.Buffer
		p := req()
		if err := WritePacket(&wire, p); err != nil {
			t.Fatal(err)
		}
		p.Release()
		n, s, _ := floodSession(t)
		s.br = bufio.NewReader(&wire)
		f := n.floods.Open(SearchFloodID(id))
		n.floods.Sent(SearchFloodID(id)) // the sender's count
		f.Release()
		s.drainInbound()
		if !completed(f) {
			t.Fatal("search packet buffered at a stopped reader was not retired")
		}
	})
}

// TestFloodSendPathZeroAllocs pins the `// lint:hotpath` contract on the
// per-packet flood path: counting a search packet into a session's queue
// and discarding it again allocate nothing.
func TestFloodSendPathZeroAllocs(t *testing.T) {
	n, s, _ := floodSession(t)
	f := n.floods.Open(SearchFloodID(7002))
	defer f.Release()
	p := SearchReq{ID: 7002, TTL: 2, Query: "flood accounting"}.Encode()
	defer p.Release()
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Retain()
		if err := s.send(p); err != nil {
			t.Fatal(err)
		}
		s.discard(<-s.out)
	}); allocs != 0 {
		t.Fatalf("flood send path allocs = %v, want 0", allocs)
	}
}
