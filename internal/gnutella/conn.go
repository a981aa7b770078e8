package gnutella

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pmalware/internal/guid"
	"p2pmalware/internal/p2p"
)

// Handshake implements the Gnutella 0.6 three-way connect:
//
//	C: GNUTELLA CONNECT/0.6\r\n<headers>\r\n
//	S: GNUTELLA/0.6 200 OK\r\n<headers>\r\n
//	C: GNUTELLA/0.6 200 OK\r\n<headers>\r\n
//
// Headers negotiate ultrapeer roles and query routing, LimeWire-style.

const (
	connectLine  = "GNUTELLA CONNECT/0.6"
	okLine       = "GNUTELLA/0.6 200 OK"
	rejectLine   = "GNUTELLA/0.6 503 Service Unavailable"
	maxHeaderLen = 16 << 10
)

// HandshakeInfo is the negotiated peer state.
type HandshakeInfo struct {
	// Ultrapeer reports whether the remote claimed ultrapeer capability.
	Ultrapeer bool
	// UserAgent is the remote's User-Agent header.
	UserAgent string
	// ListenIP/ListenPort are the remote's advertised listening endpoint
	// (from its Listen-IP header), for trace records.
	ListenIP   net.IP
	ListenPort uint16
	// Headers are all received headers, canonicalized to lower-case keys.
	Headers map[string]string
}

// ErrHandshakeRejected is returned when the remote answers 503.
var ErrHandshakeRejected = errors.New("gnutella: handshake rejected")

// HandshakeOptions configure the local side of a handshake.
type HandshakeOptions struct {
	// Ultrapeer advertises ultrapeer capability.
	Ultrapeer bool
	// UserAgent is the servent identification ("LimeWire/4.10.9" style).
	UserAgent string
	// ListenAddr is the local advertised endpoint "ip:port".
	ListenAddr string
	// Timeout bounds the whole handshake.
	Timeout time.Duration
}

func (o *HandshakeOptions) headers() map[string]string {
	h := map[string]string{
		"User-Agent":      o.UserAgent,
		"X-Query-Routing": "0.1",
		"X-Ultrapeer":     boolHeader(o.Ultrapeer),
	}
	if o.ListenAddr != "" {
		h["Listen-IP"] = o.ListenAddr
	}
	return h
}

func boolHeader(v bool) string {
	if v {
		return "True"
	}
	return "False"
}

// ClientHandshake performs the initiator side on conn. The caller supplies
// the connection's buffered reader and must keep using that same reader for
// subsequent descriptor framing: the handshake may buffer bytes beyond the
// final header line (TCP coalesces the remote's writes), and a fresh reader
// would silently lose them.
func ClientHandshake(conn net.Conn, br *bufio.Reader, opts HandshakeOptions) (*HandshakeInfo, error) {
	if opts.Timeout > 0 {
		conn.SetDeadline(ioDeadline(opts.Timeout))
		defer conn.SetDeadline(time.Time{})
	}
	bw := bufio.NewWriter(conn)
	if err := writeHandshakePart(bw, connectLine, opts.headers()); err != nil {
		return nil, err
	}
	status, hdrs, err := readHandshakePart(br)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(status, "GNUTELLA/0.6 200") {
		return nil, fmt.Errorf("%w: %s", ErrHandshakeRejected, status)
	}
	if err := writeHandshakePart(bw, okLine, map[string]string{}); err != nil {
		return nil, err
	}
	return infoFromHeaders(hdrs), nil
}

// ServerHandshake performs the acceptor side on conn. The accept callback
// may reject the peer (e.g. leaf slots full) by returning false. Like
// ClientHandshake, it reads through the caller's buffered reader, which
// must also serve all subsequent descriptor framing.
func ServerHandshake(conn net.Conn, br *bufio.Reader, opts HandshakeOptions, accept func(*HandshakeInfo) bool) (*HandshakeInfo, error) {
	if opts.Timeout > 0 {
		conn.SetDeadline(ioDeadline(opts.Timeout))
		defer conn.SetDeadline(time.Time{})
	}
	status, hdrs, err := readHandshakePart(br)
	if err != nil {
		return nil, err
	}
	if status != connectLine {
		return nil, fmt.Errorf("gnutella: unexpected connect line %q", status)
	}
	info := infoFromHeaders(hdrs)
	bw := bufio.NewWriter(conn)
	if accept != nil && !accept(info) {
		writeHandshakePart(bw, rejectLine, map[string]string{"User-Agent": opts.UserAgent})
		return nil, ErrHandshakeRejected
	}
	if err := writeHandshakePart(bw, okLine, opts.headers()); err != nil {
		return nil, err
	}
	status, _, err = readHandshakePart(br)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(status, "GNUTELLA/0.6 200") {
		return nil, fmt.Errorf("%w: final ack %q", ErrHandshakeRejected, status)
	}
	return info, nil
}

func writeHandshakePart(bw *bufio.Writer, status string, headers map[string]string) error {
	if _, err := bw.WriteString(status + "\r\n"); err != nil {
		return fmt.Errorf("gnutella: handshake write: %w", err)
	}
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := bw.WriteString(k + ": " + headers[k] + "\r\n"); err != nil {
			return fmt.Errorf("gnutella: handshake write: %w", err)
		}
	}
	if _, err := bw.WriteString("\r\n"); err != nil {
		return fmt.Errorf("gnutella: handshake write: %w", err)
	}
	return bw.Flush()
}

func readHandshakePart(br *bufio.Reader) (status string, headers map[string]string, err error) {
	headers = make(map[string]string)
	total := 0
	first := true
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", nil, fmt.Errorf("gnutella: handshake read: %w", err)
		}
		total += len(line)
		if total > maxHeaderLen {
			return "", nil, fmt.Errorf("gnutella: handshake headers exceed %d bytes", maxHeaderLen)
		}
		line = strings.TrimRight(line, "\r\n")
		if first {
			status = line
			first = false
			continue
		}
		if line == "" {
			return status, headers, nil
		}
		if i := strings.IndexByte(line, ':'); i > 0 {
			headers[strings.ToLower(strings.TrimSpace(line[:i]))] = strings.TrimSpace(line[i+1:])
		}
	}
}

func infoFromHeaders(h map[string]string) *HandshakeInfo {
	info := &HandshakeInfo{
		Ultrapeer: strings.EqualFold(h["x-ultrapeer"], "true"),
		UserAgent: h["user-agent"],
		Headers:   h,
	}
	if la := h["listen-ip"]; la != "" {
		// A malformed Listen-IP header (hostile or buggy peer) must not
		// poison the endpoint: both parts validate independently, and a
		// port outside 1..65535 — or any non-numeric junk, which the old
		// fmt.Sscanf parse silently mapped to 0 or a partial prefix — is
		// rejected outright.
		if host, port, err := net.SplitHostPort(la); err == nil {
			info.ListenIP = net.ParseIP(host)
			if p, err := strconv.Atoi(port); err == nil && p > 0 && p <= 65535 {
				info.ListenPort = uint16(p)
			}
		}
	}
	return info
}

// Conn is a framed descriptor connection over an established (handshaken)
// transport connection. Reads and writes are not internally synchronized:
// the node runs one reader goroutine and serializes writes.
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// box sits between bw and c: it counts the bytes c accepted and the
	// counted flood descriptors staged since the last clean flush.
	box *p2p.Outbox
	// rhdr and whdr are reader-/writer-owned header scratch space: io
	// calls take them through interfaces, and a per-call stack array would
	// escape into a fresh heap allocation per descriptor.
	rhdr [HeaderSize]byte
	whdr [HeaderSize]byte
}

// NewConn wraps an established connection with a fresh buffered reader.
// Use NewConnFrom when handshake bytes were already read through an
// existing reader.
func NewConn(c net.Conn) *Conn {
	return NewConnFrom(c, bufio.NewReaderSize(c, 32<<10))
}

// NewConnFrom wraps an established connection, continuing to read through
// br so no bytes buffered during the handshake are lost.
func NewConnFrom(c net.Conn, br *bufio.Reader) *Conn {
	return newFloodConn(c, br, nil)
}

// newFloodConn is NewConnFrom for a node whose universe keeps a flood
// ledger (nil for none).
func newFloodConn(c net.Conn, br *bufio.Reader, led *p2p.FloodLedger) *Conn {
	box := p2p.NewOutbox(c, led)
	return &Conn{c: c, br: br, bw: bufio.NewWriterSize(box, 32<<10), box: box}
}

// errPayloadSize lives off the hot path so Read/WriteBuffered stay free of
// fmt boxing under the hotpath allocation contract.
func errPayloadSize(n int) error {
	return fmt.Errorf("%w: %d bytes", ErrPayloadSize, n)
}

// Read returns the next descriptor. It enforces MaxPayload and clamps TTL.
//
// The returned message is pool-managed: its payload lives in a bufpool
// slab and the caller holds the one reference. The node's read loop
// releases it after dispatch, so anything that must outlive the handler —
// a forward target, a collector — either takes its own reference (Retain)
// or copies what it needs; the parsed forms (ParseQuery, ParseQueryHit,
// ...) already copy every string out of the payload. Conn itself never
// retains or releases references. Read is not safe for concurrent use
// (one reader goroutine per connection, as runPeer guarantees).
//
// lint:hotpath
func (fc *Conn) Read() (*Message, error) {
	if _, err := io.ReadFull(fc.br, fc.rhdr[:]); err != nil {
		return nil, err
	}
	g, _ := guid.FromBytes(fc.rhdr[0:16])
	plen := binary.LittleEndian.Uint32(fc.rhdr[19:])
	if plen > MaxPayload {
		return nil, errPayloadSize(int(plen))
	}
	m := NewMessage(g, MsgType(fc.rhdr[16]), fc.rhdr[17], fc.rhdr[18], int(plen))
	if m.TTL > MaxTTL {
		m.TTL = MaxTTL
	}
	if plen > 0 {
		m.Payload = m.slab[:plen]
		if _, err := io.ReadFull(fc.br, m.Payload); err != nil {
			m.Release()
			return nil, err
		}
	}
	return m, nil
}

// WriteBuffered stages a descriptor in the connection's write buffer
// without flushing, so a burst of outbound descriptors coalesces into one
// wire write. Callers must pair it with Flush; reference accounting stays
// with the caller.
//
// lint:hotpath
func (fc *Conn) WriteBuffered(m *Message) error {
	if len(m.Payload) > MaxPayload {
		return errPayloadSize(len(m.Payload))
	}
	copy(fc.whdr[0:16], m.GUID[:])
	fc.whdr[16] = byte(m.Type)
	fc.whdr[17] = m.TTL
	fc.whdr[18] = m.Hops
	binary.LittleEndian.PutUint32(fc.whdr[19:], uint32(len(m.Payload)))
	if _, err := fc.bw.Write(fc.whdr[:]); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := fc.bw.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// stage is WriteBuffered for the node's writer: it also records the
// descriptor with the outbox, so a failed write retires it unless the
// receiver read it in full.
//
// lint:hotpath
func (fc *Conn) stage(m *Message) error {
	id, counted := floodKey(m)
	fc.box.Staged(HeaderSize+len(m.Payload), id, counted)
	return fc.WriteBuffered(m)
}

// Flush pushes buffered descriptors onto the wire.
func (fc *Conn) Flush() error {
	if err := fc.bw.Flush(); err != nil {
		return err
	}
	fc.box.Flushed()
	return nil
}

// Write sends a descriptor and flushes.
func (fc *Conn) Write(m *Message) error {
	if err := fc.WriteBuffered(m); err != nil {
		return err
	}
	return fc.Flush()
}

// Close closes the underlying connection.
func (fc *Conn) Close() error { return fc.c.Close() }

// SetReadDeadline forwards to the underlying connection.
func (fc *Conn) SetReadDeadline(t time.Time) error { return fc.c.SetReadDeadline(t) }

// RemoteAddr returns the underlying remote address.
func (fc *Conn) RemoteAddr() net.Addr { return fc.c.RemoteAddr() }
