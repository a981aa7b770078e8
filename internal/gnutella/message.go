// Package gnutella implements the Gnutella 0.6 protocol as spoken by
// 2006-era servents such as LimeWire: the 0.6 handshake, the binary
// descriptor framing, Ping/Pong/Query/QueryHit/Push/Bye and route-table
// update messages, QRP query routing between ultrapeers and leaves, GUID
// reverse-path routing, and the HTTP-style file transfer endpoints
// (/get/<index>/<name> and /uri-res/N2R).
//
// The implementation is faithful to the classic wire formats (little-endian
// multi-byte fields, null-terminated strings, the QHD trailer on query
// hits) so that trace records produced by the simulated network carry the
// same information the instrumented LimeWire client logged: filename, file
// size, source IP and port, servent GUID, and content URN.
package gnutella

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"

	"p2pmalware/internal/guid"
)

// MsgType is the descriptor payload type byte.
type MsgType byte

// Gnutella descriptor types.
const (
	MsgPing       MsgType = 0x00
	MsgPong       MsgType = 0x01
	MsgBye        MsgType = 0x02
	MsgRouteTable MsgType = 0x30
	MsgPush       MsgType = 0x40
	MsgQuery      MsgType = 0x80
	MsgQueryHit   MsgType = 0x81
)

// String returns the conventional descriptor name.
func (t MsgType) String() string {
	switch t {
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgBye:
		return "bye"
	case MsgRouteTable:
		return "route-table"
	case MsgPush:
		return "push"
	case MsgQuery:
		return "query"
	case MsgQueryHit:
		return "query-hit"
	default:
		return fmt.Sprintf("type(0x%02x)", byte(t))
	}
}

// HeaderSize is the descriptor header length: 16-byte GUID, type, TTL,
// hops, 4-byte little-endian payload length.
const HeaderSize = 23

// MaxPayload caps descriptor payloads; larger descriptors indicate a
// corrupt or hostile peer and kill the connection, as real servents did.
const MaxPayload = 64 << 10

// DefaultTTL is the initial TTL modern servents used for flooded
// descriptors.
const DefaultTTL = 4

// MaxTTL is the hard ceiling: descriptors claiming more are clamped.
const MaxTTL = 7

// Message is one raw descriptor. It is a plain heap value that any
// holder may keep: a reader gives each descriptor its own payload, and a
// forward hands the same descriptor to every target link, whose writers
// only read it.
type Message struct {
	// GUID is the descriptor's globally unique ID, used for duplicate
	// suppression and reverse-path routing.
	GUID guid.GUID
	// Type is the payload type.
	Type MsgType
	// TTL is the remaining hop budget.
	TTL byte
	// Hops counts hops taken so far.
	Hops byte
	// Payload is the raw descriptor payload.
	Payload []byte
}

// Errors shared by message parsing.
var (
	ErrShortPayload = errors.New("gnutella: payload too short")
	ErrPayloadSize  = errors.New("gnutella: payload exceeds limit")
	ErrBadString    = errors.New("gnutella: unterminated string")
)

// Ping has an empty payload in the classic protocol.
type Ping struct{}

// Encode returns the ping payload.
func (Ping) Encode() []byte { return nil }

// Pong advertises a reachable servent and its shared-library size.
type Pong struct {
	// Port is the advertised listening port.
	Port uint16
	// IP is the advertised IPv4 address.
	IP net.IP
	// Files is the number of files the servent shares.
	Files uint32
	// KB is the total shared size in kilobytes.
	KB uint32
}

// pongSize is the fixed pong payload length.
const pongSize = 14

// Encode returns the 14-byte pong payload.
//
// lint:hotpath
func (p Pong) Encode() []byte {
	b := make([]byte, pongSize)
	binary.LittleEndian.PutUint16(b[0:], p.Port)
	copy(b[2:6], ipv4(p.IP))
	binary.LittleEndian.PutUint32(b[6:], p.Files)
	binary.LittleEndian.PutUint32(b[10:], p.KB)
	return b
}

// ParsePong decodes a pong payload.
func ParsePong(b []byte) (Pong, error) {
	if len(b) < 14 {
		return Pong{}, fmt.Errorf("%w: pong is %d bytes", ErrShortPayload, len(b))
	}
	return Pong{
		Port:  binary.LittleEndian.Uint16(b[0:]),
		IP:    net.IPv4(b[2], b[3], b[4], b[5]),
		Files: binary.LittleEndian.Uint32(b[6:]),
		KB:    binary.LittleEndian.Uint32(b[10:]),
	}, nil
}

// Query is a keyword search descriptor.
type Query struct {
	// MinSpeed is the classic minimum-speed field (flag bits in modern
	// servents; carried verbatim).
	MinSpeed uint16
	// Criteria is the search string.
	Criteria string
	// Extensions carries the HUGE/GGEP extension block between the first
	// and second null, e.g. "urn:sha1:" requests. Opaque to routing.
	Extensions string
}

// Encode returns the query payload.
//
// lint:hotpath
func (q Query) Encode() []byte {
	n := 2 + len(q.Criteria) + 1
	if q.Extensions != "" {
		n += len(q.Extensions) + 1
	}
	b := make([]byte, 2, n)
	binary.LittleEndian.PutUint16(b, q.MinSpeed)
	b = append(b, q.Criteria...)
	b = append(b, 0)
	if q.Extensions != "" {
		b = append(b, q.Extensions...)
		b = append(b, 0)
	}
	return b
}

// ParseQuery decodes a query payload.
func ParseQuery(b []byte) (Query, error) {
	if len(b) < 3 {
		return Query{}, fmt.Errorf("%w: query is %d bytes", ErrShortPayload, len(b))
	}
	q := Query{MinSpeed: binary.LittleEndian.Uint16(b[0:])}
	rest := b[2:]
	i := indexNull(rest)
	if i < 0 {
		return Query{}, fmt.Errorf("%w: query criteria", ErrBadString)
	}
	q.Criteria = string(rest[:i])
	rest = rest[i+1:]
	if len(rest) > 0 {
		j := indexNull(rest)
		if j < 0 {
			j = len(rest)
		}
		q.Extensions = string(rest[:j])
	}
	return q, nil
}

// Hit is one result record inside a query hit.
type Hit struct {
	// Index is the responder's file index for the download request.
	Index uint32
	// Size is the file size in bytes (32-bit on the wire).
	Size uint32
	// Name is the advertised filename.
	Name string
	// Extensions carries per-result metadata between the two nulls,
	// typically the "urn:sha1:..." content URN.
	Extensions string
}

// QHD flag bits (first flags byte of the EQHD "open data").
const (
	QHDPush  = 0x01 // responder is firewalled; downloads need a push
	QHDBusy  = 0x04 // all upload slots busy
	QHDStale = 0x02 // (historic "uploaded at least once" bit position varies; kept for parity)
)

// QueryHit is the response descriptor carrying result records.
type QueryHit struct {
	// Port and IP advertise the responder's transfer endpoint.
	Port uint16
	IP   net.IP
	// Speed is the advertised connection speed in kbps.
	Speed uint32
	// Hits are the result records.
	Hits []Hit
	// Vendor is the 4-character servent vendor code in the QHD ("LIME",
	// "BEAR", ...).
	Vendor string
	// Flags is the QHD flags byte (QHDPush etc.).
	Flags byte
	// ServentID is the responder's servent GUID (trailing 16 bytes),
	// the key push requests route on.
	ServentID guid.GUID
}

// errTooManyHits lives off the hot path so Encode stays free of fmt
// boxing under the hotpath allocation contract.
func errTooManyHits(n int) error {
	return fmt.Errorf("gnutella: %d hits exceeds 255", n)
}

// Encode returns the query-hit payload, including the QHD trailer when
// Vendor is set (its code padded or truncated to 4 bytes), and the
// trailing servent GUID.
//
// lint:hotpath
func (qh QueryHit) Encode() ([]byte, error) {
	if len(qh.Hits) > 255 {
		return nil, errTooManyHits(len(qh.Hits))
	}
	n := 11 + guid.Size
	for i := range qh.Hits {
		n += 8 + len(qh.Hits[i].Name) + 1 + len(qh.Hits[i].Extensions) + 1
	}
	if qh.Vendor != "" {
		n += 4 + 3
	}
	dst := make([]byte, 11, n)
	dst[0] = byte(len(qh.Hits))
	binary.LittleEndian.PutUint16(dst[1:], qh.Port)
	copy(dst[3:7], ipv4(qh.IP))
	binary.LittleEndian.PutUint32(dst[7:], qh.Speed)
	for i := range qh.Hits {
		h := &qh.Hits[i]
		var rec [8]byte
		binary.LittleEndian.PutUint32(rec[0:], h.Index)
		binary.LittleEndian.PutUint32(rec[4:], h.Size)
		dst = append(dst, rec[:]...)
		dst = append(dst, h.Name...)
		dst = append(dst, 0)
		dst = append(dst, h.Extensions...)
		dst = append(dst, 0)
	}
	if qh.Vendor != "" {
		dst = appendVendor(dst, qh.Vendor)
		// Open data: length 2, flags byte and flags2 byte (flags2 marks
		// which flag bits are meaningful; we mark all we set).
		dst = append(dst, 2, qh.Flags, qh.Flags|QHDBusy|QHDPush)
	}
	dst = append(dst, qh.ServentID[:]...)
	return dst, nil
}

// appendVendor appends the vendor code padded or truncated to exactly 4
// bytes. The padding concatenation lives outside the hot path: vendor
// codes are 4 characters in practice, so the fast branch appends directly.
func appendVendor(dst []byte, vendor string) []byte {
	if len(vendor) >= 4 {
		return append(dst, vendor[:4]...)
	}
	return append(dst, (vendor + "    ")[:4]...)
}

// ParseQueryHit decodes a query-hit payload.
func ParseQueryHit(b []byte) (QueryHit, error) {
	var qh QueryHit
	if len(b) < 11+guid.Size {
		return qh, fmt.Errorf("%w: query hit is %d bytes", ErrShortPayload, len(b))
	}
	n := int(b[0])
	qh.Port = binary.LittleEndian.Uint16(b[1:])
	qh.IP = net.IPv4(b[3], b[4], b[5], b[6])
	qh.Speed = binary.LittleEndian.Uint32(b[7:])
	rest := b[11 : len(b)-guid.Size]
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return qh, fmt.Errorf("%w: hit record %d header", ErrShortPayload, i)
		}
		var h Hit
		h.Index = binary.LittleEndian.Uint32(rest[0:])
		h.Size = binary.LittleEndian.Uint32(rest[4:])
		rest = rest[8:]
		j := indexNull(rest)
		if j < 0 {
			return qh, fmt.Errorf("%w: hit record %d name", ErrBadString, i)
		}
		h.Name = string(rest[:j])
		rest = rest[j+1:]
		k := indexNull(rest)
		if k < 0 {
			return qh, fmt.Errorf("%w: hit record %d extensions", ErrBadString, i)
		}
		h.Extensions = string(rest[:k])
		rest = rest[k+1:]
		qh.Hits = append(qh.Hits, h)
	}
	// Optional QHD: vendor code + open-data.
	if len(rest) >= 4 {
		qh.Vendor = strings.TrimRight(string(rest[0:4]), " ")
		rest = rest[4:]
		if len(rest) >= 1 {
			odLen := int(rest[0])
			rest = rest[1:]
			if odLen >= 1 && len(rest) >= 1 {
				qh.Flags = rest[0]
			}
		}
	}
	sid, err := guid.FromBytes(b[len(b)-guid.Size:])
	if err != nil {
		return qh, err
	}
	qh.ServentID = sid
	return qh, nil
}

// Push asks a firewalled responder to open an outbound connection and
// serve a file ("GIV" flow).
type Push struct {
	// ServentID identifies the servent being asked to push.
	ServentID guid.GUID
	// Index is the file index from the query hit.
	Index uint32
	// IP and Port are the requester's transfer endpoint.
	IP   net.IP
	Port uint16
}

// pushSize is the fixed push payload length.
const pushSize = 26

// Encode returns the 26-byte push payload.
//
// lint:hotpath
func (p Push) Encode() []byte {
	b := make([]byte, pushSize)
	copy(b[0:16], p.ServentID[:])
	binary.LittleEndian.PutUint32(b[16:], p.Index)
	copy(b[20:24], ipv4(p.IP))
	binary.LittleEndian.PutUint16(b[24:], p.Port)
	return b
}

// ParsePush decodes a push payload.
func ParsePush(b []byte) (Push, error) {
	if len(b) < 26 {
		return Push{}, fmt.Errorf("%w: push is %d bytes", ErrShortPayload, len(b))
	}
	sid, err := guid.FromBytes(b[0:16])
	if err != nil {
		return Push{}, err
	}
	return Push{
		ServentID: sid,
		Index:     binary.LittleEndian.Uint32(b[16:]),
		IP:        net.IPv4(b[20], b[21], b[22], b[23]),
		Port:      binary.LittleEndian.Uint16(b[24:]),
	}, nil
}

// Bye announces an orderly disconnect with a status code and reason.
type Bye struct {
	Code   uint16
	Reason string
}

// Encode returns the bye payload.
//
// lint:hotpath
func (b Bye) Encode() []byte {
	dst := make([]byte, 2, 2+len(b.Reason)+1)
	binary.LittleEndian.PutUint16(dst, b.Code)
	dst = append(dst, b.Reason...)
	return append(dst, 0)
}

// ParseBye decodes a bye payload.
func ParseBye(b []byte) (Bye, error) {
	if len(b) < 3 {
		return Bye{}, fmt.Errorf("%w: bye is %d bytes", ErrShortPayload, len(b))
	}
	i := indexNull(b[2:])
	if i < 0 {
		i = len(b) - 2
	}
	return Bye{Code: binary.LittleEndian.Uint16(b), Reason: string(b[2 : 2+i])}, nil
}

func indexNull(b []byte) int {
	for i, v := range b {
		if v == 0 {
			return i
		}
	}
	return -1
}

func ipv4(ip net.IP) []byte {
	if v4 := ip.To4(); v4 != nil {
		return v4
	}
	return []byte{0, 0, 0, 0}
}
