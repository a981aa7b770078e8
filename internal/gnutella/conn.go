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
		conn.SetDeadline(time.Now().Add(opts.Timeout))
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
		conn.SetDeadline(time.Now().Add(opts.Timeout))
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

// codec frames descriptors (see p2p.Codec). rhdr and whdr are reader- and
// writer-owned header scratch space: io calls take them through
// interfaces, and a per-call stack array would escape into a fresh heap
// allocation per descriptor.
type codec struct {
	rhdr, whdr [HeaderSize]byte
}

// errPayloadSize lives off the hot path so the codec stays free of fmt
// boxing under the hotpath allocation contract.
func errPayloadSize(n int) error {
	return fmt.Errorf("%w: %d bytes", ErrPayloadSize, n)
}

// FloodKey names the flood a descriptor belongs to and reports whether
// the flood ledger counts it: queries and their hits share the query's
// GUID.
//
// lint:hotpath
func (m *Message) FloodKey() (p2p.FloodID, bool) {
	return p2p.FloodID(m.GUID), m.Type == MsgQuery || m.Type == MsgQueryHit
}

// ReadFrame reads one descriptor from br, enforcing MaxPayload and
// clamping TTL. Each descriptor gets a payload of its own.
func (cd *codec) ReadFrame(br *bufio.Reader) (*Message, error) {
	if _, err := io.ReadFull(br, cd.rhdr[:]); err != nil {
		return nil, err
	}
	g, _ := guid.FromBytes(cd.rhdr[0:16])
	plen := binary.LittleEndian.Uint32(cd.rhdr[19:])
	if plen > MaxPayload {
		return nil, errPayloadSize(int(plen))
	}
	m := &Message{GUID: g, Type: MsgType(cd.rhdr[16]), TTL: min(cd.rhdr[17], MaxTTL), Hops: cd.rhdr[18]}
	if plen > 0 {
		m.Payload = make([]byte, plen)
		if _, err := io.ReadFull(br, m.Payload); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// WriteFrame stages a descriptor in bw without flushing and returns its
// size on the wire.
//
// lint:hotpath
func (cd *codec) WriteFrame(bw *bufio.Writer, m *Message) (int, error) {
	if len(m.Payload) > MaxPayload {
		return 0, errPayloadSize(len(m.Payload))
	}
	copy(cd.whdr[0:16], m.GUID[:])
	cd.whdr[16] = byte(m.Type)
	cd.whdr[17] = m.TTL
	cd.whdr[18] = m.Hops
	binary.LittleEndian.PutUint32(cd.whdr[19:], uint32(len(m.Payload)))
	if _, err := bw.Write(cd.whdr[:]); err != nil {
		return 0, err
	}
	if len(m.Payload) > 0 {
		if _, err := bw.Write(m.Payload); err != nil {
			return 0, err
		}
	}
	return HeaderSize + len(m.Payload), nil
}

// Counters returns the descriptor type's message counters.
//
// lint:hotpath
func (*codec) Counters(m *Message) *p2p.MessageCounters { return &met.msg[m.Type] }
