// Package p2p holds the abstractions shared by both protocol stacks
// (Gnutella and OpenFT): the transport layer, the shared-file model with
// SHA1 URNs, keyword tokenization, and the keyword-indexed library that
// backs a servent's shared folder.
package p2p

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport abstracts how nodes reach each other, so the same node code
// runs over real TCP (interop binaries, integration tests) and over an
// in-memory fabric (large simulated populations).
type Transport interface {
	// Listen binds the given address and returns a listener.
	Listen(addr string) (net.Listener, error)
	// Dial connects to the given address.
	Dial(addr string) (net.Conn, error)
}

// Accept serves l until it is closed, each accepted connection on its own
// goroutine, counted in wg like the accept loop itself. A servent tells
// its overlay, HTTP and callback traffic apart on one port by the first
// bytes a peer sends, so serve gets the connection with its first four
// bytes peeked through br; a peer that sends fewer within ten seconds is
// dropped.
func Accept(l net.Listener, wg *sync.WaitGroup, serve func(c net.Conn, br *bufio.Reader, sniff string)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				br := bufio.NewReader(c)
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				sniff, err := br.Peek(4)
				if err != nil {
					c.Close()
					return
				}
				c.SetReadDeadline(time.Time{})
				serve(c, br, string(sniff))
			}()
		}
	}()
}

// TCP is the Transport backed by the operating system's TCP stack.
type TCP struct{}

// Listen implements Transport.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Transport.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Mem is an in-memory Transport: listeners register under their address
// string and dials hand the listener one end of a synchronous pipe. A
// single Mem value is one isolated network universe, with one flood
// ledger that the nodes on it reach through their transport.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener // guarded by mu

	floods FloodLedger
}

// NewMem returns an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// Listen implements Transport. The address is an opaque string key; nodes
// conventionally use "ip:port" strings so trace records look like real
// endpoints.
func (m *Mem) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.listeners[addr]; ok {
		return nil, fmt.Errorf("p2p: address %s already in use", addr)
	}
	l := &memListener{addr: addr, backlog: make(chan net.Conn, 64), done: make(chan struct{}), owner: m}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (m *Mem) Dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: fmt.Errorf("connection refused: %s", addr)}
	}
	client, server := net.Pipe()
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: fmt.Errorf("connection refused: %s (closed)", addr)}
	}
}

// Floods returns the universe's flood ledger.
func (m *Mem) Floods() *FloodLedger { return &m.floods }

func (m *Mem) remove(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	addr      string
	backlog   chan net.Conn
	done      chan struct{}
	owner     *Mem
	closeOnce sync.Once
}

// ErrListenerClosed is returned by Accept after Close.
var ErrListenerClosed = errors.New("p2p: listener closed")

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.owner.remove(l.addr)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
