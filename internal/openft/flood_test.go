package openft

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"

	"p2pmalware/internal/p2p"
)

// floodSession returns a session, its writer not started, on a node whose
// universe keeps a flood ledger, plus the remote end of its pipe.
func floodSession(t *testing.T) (*Node, *session, net.Conn) {
	t.Helper()
	n := NewNode(Config{Transport: p2p.NewMem()})
	local, remote := net.Pipe()
	t.Cleanup(func() { local.Close(); remote.Close() })
	return n, newSession(local, bufio.NewReader(local), n.floods), remote
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
			s.Close()
			if err := s.Send(req()); err != p2p.ErrLinkClosed {
				t.Fatalf("send = %v, want ErrLinkClosed", err)
			}
		}},
		{"full queue", func(t *testing.T, s *session, _ net.Conn) {
			for i := 0; i < p2p.SendQueueCap; i++ {
				if err := s.Send(&Packet{Cmd: CmdStatsReq}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Send(req()); err != p2p.ErrQueueFull {
				t.Fatalf("send = %v, want ErrQueueFull", err)
			}
		}},
		{"drained at shutdown", func(t *testing.T, s *session, _ net.Conn) {
			if err := s.Send(req()); err != nil {
				t.Fatal(err)
			}
			s.Close() // drains the queue
		}},
		{"failed write", func(t *testing.T, s *session, remote net.Conn) {
			remote.Close()
			if err := s.Send(req()); err != nil {
				t.Fatal(err)
			}
			s.WriteLoop() // the flush fails: nothing reached the peer
		}},
		{"failed direct write", func(t *testing.T, s *session, remote net.Conn) {
			remote.Close()
			if err := s.Write(req()); err == nil {
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
		// Two whole packets arrive in one read; the handler fails on the
		// first, so the second is still buffered when the loop stops.
		n := NewNode(Config{Transport: p2p.NewMem()})
		f := n.floods.Open(SearchFloodID(id))
		var wire bytes.Buffer
		for i := 0; i < 2; i++ {
			if err := WritePacket(&wire, req()); err != nil {
				t.Fatal(err)
			}
			n.floods.Sent(SearchFloodID(id)) // the sender's count
		}
		f.Release()
		local, remote := net.Pipe()
		defer remote.Close()
		handled := 0
		newSession(local, bufio.NewReader(&wire), n.floods).Serve(func(*Packet) error {
			handled++
			return errors.New("handler failed")
		})
		if handled != 1 {
			t.Fatalf("handled %d packets, want 1", handled)
		}
		if !completed(f) {
			t.Fatal("search packet buffered at a stopped reader was not retired")
		}
	})
}

// TestFloodSendPathZeroAllocs pins the `// lint:hotpath` contract on the
// per-packet flood path: counting a search packet into a session's queue,
// and counting and dropping it at a full queue, allocate nothing. Each
// path is measured on its own, so one allocation per send on either shows;
// the link's own test measures taking a frame back off the queue. Closing
// the session then retires every count.
func TestFloodSendPathZeroAllocs(t *testing.T) {
	n, s, _ := floodSession(t)
	f := n.floods.Open(SearchFloodID(7002))
	p := SearchReq{ID: 7002, TTL: 2, Query: "flood accounting"}.Encode()
	send := func(want error) func() {
		return func() {
			if err := s.Send(p); !errors.Is(err, want) {
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
	s.Close() // drains the queue
	f.Release()
	if !completed(f) {
		t.Fatal("queued and dropped search packets were not all retired")
	}
}
