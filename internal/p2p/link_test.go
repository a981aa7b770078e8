package p2p

import (
	"bufio"
	"io"
	"net"
	"testing"
)

// testFrame is a counted frame.
type testFrame struct{ id FloodID }

func (f *testFrame) FloodKey() (FloodID, bool) { return f.id, true }

// testCodec frames nothing; the queue test never touches the wire.
type testCodec struct{ counters MessageCounters }

func (*testCodec) ReadFrame(*bufio.Reader) (*testFrame, error)       { return nil, io.EOF }
func (*testCodec) WriteFrame(*bufio.Writer, *testFrame) (int, error) { return 0, nil }
func (cd *testCodec) Counters(*testFrame) *MessageCounters           { return &cd.counters }

// TestLinkQueueZeroAllocs pins the `// lint:hotpath` contract on both ends
// of a link's queue: counting a frame into it and discarding the frame
// taken back off it allocate nothing, on every run. The protocol stacks'
// flood tests measure the send and drop paths with their own frames.
func TestLinkQueueZeroAllocs(t *testing.T) {
	var led FloodLedger
	id := FloodID{3}
	fl := led.Open(id)
	local, remote := net.Pipe()
	defer remote.Close()
	l := NewLink[*testFrame](local, bufio.NewReader(local), &led, &testCodec{NewMessageCounters("test", "frame")})
	defer l.Close()
	f := &testFrame{id: id}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Send(f); err != nil {
			t.Fatal(err)
		}
		l.discard((<-l.out).f)
	}); allocs != 0 {
		t.Fatalf("link queue allocs = %v, want 0", allocs)
	}
	fl.Release()
	if !floodDone(fl) {
		t.Fatal("flood not done: want every send retired")
	}
}
