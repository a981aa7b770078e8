package p2p

import (
	"bufio"
	"errors"
	"net"
	"sync"

	"p2pmalware/internal/obs"
)

// SendQueueCap bounds a link's outbound backlog.
const SendQueueCap = 512

// Frame is one message a Link carries: a Gnutella descriptor or an OpenFT
// packet. A link only reads a frame, so one frame may go to several links.
type Frame interface {
	// FloodKey names the flood the frame belongs to and reports whether
	// the flood ledger counts it.
	FloodKey() (FloodID, bool)
}

// Codec is one protocol's framing on a link's buffered streams.
type Codec[F Frame] interface {
	// ReadFrame returns the next whole frame.
	ReadFrame(br *bufio.Reader) (F, error)
	// WriteFrame stages f without flushing and returns its wire size.
	WriteFrame(bw *bufio.Writer, f F) (int, error)
	// Counters returns the message counters of f's type.
	Counters(f F) *MessageCounters
}

// MessageCounters count one message type's frames: received, sent, and
// dropped on a full queue.
type MessageCounters struct{ Rx, Tx, Drop *obs.Counter }

// NewMessageCounters registers the counters of message type typ on
// network.
func NewMessageCounters(network, typ string) MessageCounters {
	return MessageCounters{
		Rx:   obs.C("p2p_messages_rx_total", "network", network, "type", typ),
		Tx:   obs.C("p2p_messages_tx_total", "network", network, "type", typ),
		Drop: obs.C("p2p_messages_drop_total", "network", network, "type", typ),
	}
}

// The send errors are preallocated so the send path builds no error
// values per frame.
var (
	ErrLinkClosed = errors.New("p2p: link closed")
	ErrQueueFull  = errors.New("p2p: send queue full, frame dropped")
)

// Link is one established overlay connection, whichever protocol it
// speaks. Outbound frames go through a bounded queue drained by a writer
// goroutine: a read loop must never block on a peer's inbound flow, or two
// nodes replying to each other over synchronous pipes deadlock. A full
// queue drops the frame, as real servents shed load on slow peers.
//
// The link keeps the flood ledger's books for its frames: it counts every
// counted frame it is handed and retires it on each path where the frame
// never reaches the peer — a full queue, a closed link, a queue drained at
// shutdown, or a failed write the peer did not read in full. Its read loop
// retires a counted frame once the handler returns, and the frames the
// peer delivered but the loop never handled once it stops.
type Link[F Frame] struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	box   *Outbox // between bw and conn
	led   *FloodLedger
	codec Codec[F]
	out   chan queued[F]
	done  chan struct{}
	once  sync.Once
}

type queued[F Frame] struct {
	f    F
	last bool // shut the link down once f is flushed
}

// NewLink wraps an established connection. It reads through br, the
// handshake's reader, so no bytes the handshake buffered are lost; led may
// be nil. The 8 KiB write buffer holds a typical burst (a longer one is
// flushed in pieces); a universe holds hundreds of links, so a larger
// buffer costs resident memory.
func NewLink[F Frame](c net.Conn, br *bufio.Reader, led *FloodLedger, codec Codec[F]) *Link[F] {
	box := NewOutbox(c, led)
	return &Link[F]{conn: c, br: br, bw: bufio.NewWriterSize(box, 8<<10), box: box, led: led, codec: codec,
		out: make(chan queued[F], SendQueueCap), done: make(chan struct{})}
}

// Start runs WriteLoop on its own goroutine, counted in wg.
func (l *Link[F]) Start(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.WriteLoop()
	}()
}

// Send queues f for the writer; it never blocks on the network. A full
// queue drops f and a closed link refuses it.
//
// lint:hotpath
func (l *Link[F]) Send(f F) error { return l.enqueue(f, false) }

// SendLast queues f as the link's last frame: the writer flushes it, then
// shuts the link down and drops whatever is queued behind it.
func (l *Link[F]) SendLast(f F) error { return l.enqueue(f, true) }

// lint:hotpath
func (l *Link[F]) enqueue(f F, last bool) error {
	if id, counted := f.FloodKey(); counted {
		l.led.Sent(id)
	}
	select {
	case <-l.done:
		l.discard(f)
		return ErrLinkClosed
	default:
	}
	select {
	case l.out <- queued[F]{f, last}:
		// A shutdown between the check above and the enqueue may have
		// found the queue empty; take back whatever its drain missed.
		select {
		case <-l.done:
			l.drainQueue()
		default:
		}
		return nil
	default:
		l.codec.Counters(f).Drop.Inc()
		l.discard(f)
		return ErrQueueFull
	}
}

// Write writes and flushes f at once, for a handshake that speaks before
// the writer starts; it must not run alongside WriteLoop.
func (l *Link[F]) Write(f F) error {
	if id, counted := f.FloodKey(); counted {
		l.led.Sent(id)
	}
	err := l.stage(f)
	if err == nil {
		err = l.flush()
	}
	if err != nil {
		l.box.Failed()
	}
	return err
}

// discard drops a frame that will never reach the peer.
//
// lint:hotpath
func (l *Link[F]) discard(f F) {
	if id, counted := f.FloodKey(); counted {
		l.led.Retire(id)
	}
}

// drainQueue discards everything queued on a link that has shut down.
// Concurrent drains are safe: each frame leaves the queue once.
func (l *Link[F]) drainQueue() {
	for {
		select {
		case q := <-l.out:
			l.discard(q.f)
		default:
			return
		}
	}
}

// stage writes f into the buffer and records it with the outbox. A frame
// that fails to stage never reached the peer in full.
//
// lint:hotpath
func (l *Link[F]) stage(f F) error {
	id, counted := f.FloodKey()
	n, err := l.codec.WriteFrame(l.bw, f)
	if err == nil {
		l.box.Staged(n, id, counted)
		l.codec.Counters(f).Tx.Inc()
	} else if counted {
		l.led.Retire(id)
	}
	return err
}

func (l *Link[F]) flush() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	l.box.Flushed()
	return nil
}

// WriteLoop drains the queue onto the wire until the link shuts down. A
// burst of queued frames is staged and flushed once, when the queue runs
// dry — one syscall (or simulated link write) per burst, not per frame.
// After a failed write the staged frames the peer never read in full are
// retired.
func (l *Link[F]) WriteLoop() {
	for {
		select {
		case <-l.done:
			return
		case q := <-l.out:
			for {
				if err := l.stage(q.f); err != nil {
					l.Close()
					l.box.Failed()
					return
				}
				if q.last {
					break
				}
				select {
				case q = <-l.out:
					continue
				default:
				}
				break
			}
			if err := l.flush(); err != nil {
				l.Close()
				l.box.Failed()
				return
			}
			if q.last {
				l.Close()
				return
			}
		}
	}
}

// Serve reads frames and hands each to handle until a read fails or handle
// returns an error. A counted frame is retired once its handler returns:
// every send it caused has been counted by then. When the loop stops, Serve
// shuts the link down and retires the counted frames still buffered, which
// the peer delivered in full; a frame cut off mid-way is its sender's.
func (l *Link[F]) Serve(handle func(F) error) {
	defer l.drainInbound()
	for {
		f, err := l.codec.ReadFrame(l.br)
		if err != nil {
			return
		}
		l.codec.Counters(f).Rx.Inc()
		id, counted := f.FloodKey()
		err = handle(f)
		if counted {
			l.led.Retire(id)
		}
		if err != nil {
			return
		}
	}
}

// drainInbound closes the link, so reads return only what is buffered,
// and retires the counted frames among them.
func (l *Link[F]) drainInbound() {
	l.Close()
	if l.led == nil {
		return
	}
	for {
		f, err := l.codec.ReadFrame(l.br)
		if err != nil {
			return
		}
		l.discard(f)
	}
}

// Close shuts the link down: it closes the connection, unblocking both
// loops, and discards the frames still queued. Safe to call more than
// once.
func (l *Link[F]) Close() {
	l.once.Do(func() {
		close(l.done)
		l.conn.Close()
		l.drainQueue()
	})
}

// Done is closed once the link has shut down.
func (l *Link[F]) Done() <-chan struct{} { return l.done }

// RemoteAddr returns the peer's address.
func (l *Link[F]) RemoteAddr() net.Addr { return l.conn.RemoteAddr() }
