// Package openft implements the OpenFT protocol — the giFT project's
// two-tier network that the study instrumented alongside LimeWire.
//
// OpenFT organizes nodes into classes: USER nodes hold files, SEARCH nodes
// index the shares of their USER children and answer searches, and INDEX
// nodes track node lists and statistics. A USER "child" registers with one
// or more SEARCH "parents" and pushes its share list (MD5 + size + path)
// to them; searches go to a parent, which answers from its child-share
// index and forwards the search to its SEARCH peers. File transfers are
// HTTP, addressed by content MD5.
//
// Wire format: each packet is a 2-byte big-endian payload length, a 2-byte
// big-endian command, then the payload. Strings are null-terminated.
// (The giFT implementation also stream-multiplexed packets; we keep the
// framing but not the multiplexing, which the study's observations do not
// depend on.)
package openft

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Command is the 16-bit packet command.
type Command uint16

// OpenFT commands (subset used by the reproduction, numbered after giFT's
// protocol enum).
const (
	CmdVersionReq  Command = 0x0000
	CmdVersionResp Command = 0x0001
	CmdNodeInfo    Command = 0x0002
	CmdNodeListReq Command = 0x0003
	CmdNodeList    Command = 0x0004
	CmdChildReq    Command = 0x0005
	CmdChildResp   Command = 0x0006
	CmdAddShare    Command = 0x0007
	CmdRemShare    Command = 0x0008
	CmdSearchReq   Command = 0x0009
	CmdSearchResp  Command = 0x000A
	CmdStatsReq    Command = 0x000B
	CmdStatsResp   Command = 0x000C
)

// String returns the command mnemonic.
func (c Command) String() string {
	names := map[Command]string{
		CmdVersionReq: "version-req", CmdVersionResp: "version-resp",
		CmdNodeInfo: "node-info", CmdNodeListReq: "nodelist-req",
		CmdNodeList: "nodelist", CmdChildReq: "child-req",
		CmdChildResp: "child-resp", CmdAddShare: "add-share",
		CmdRemShare: "rem-share", CmdSearchReq: "search-req",
		CmdSearchResp: "search-resp", CmdStatsReq: "stats-req",
		CmdStatsResp: "stats-resp",
	}
	if s, ok := names[c]; ok {
		return s
	}
	return fmt.Sprintf("cmd(0x%04x)", uint16(c))
}

// Class is the node-class bitmask.
type Class uint16

// Node classes.
const (
	ClassUser   Class = 1 << 0
	ClassSearch Class = 1 << 1
	ClassIndex  Class = 1 << 2
)

// String returns a "user|search|index" style rendering.
func (c Class) String() string {
	var out string
	add := func(s string) {
		if out != "" {
			out += "|"
		}
		out += s
	}
	if c&ClassUser != 0 {
		add("user")
	}
	if c&ClassSearch != 0 {
		add("search")
	}
	if c&ClassIndex != 0 {
		add("index")
	}
	if out == "" {
		out = "none"
	}
	return out
}

// MaxPacketPayload bounds packet payloads.
const MaxPacketPayload = 32 << 10

// Packet is one framed OpenFT message. Like gnutella.Message, it is a
// plain heap value that any holder may keep: ReadPacket gives each packet
// its own payload, and a relay hands a received packet on as it came.
type Packet struct {
	Cmd     Command
	Payload []byte
}

// Release does nothing: packets are left to the garbage collector. It
// remains only because perfbench's replay (perfbench/replay.go) still
// calls it; ROADMAP's perfbench item drops that call, then this method.
func (p *Packet) Release() {}

// ErrPacketSize is returned for payloads over MaxPacketPayload.
var ErrPacketSize = errors.New("openft: packet exceeds size limit")

// WritePacket frames and writes p. The header stages through a stack
// array and the payload is written as-is — no per-packet frame buffer is
// allocated.
func WritePacket(w io.Writer, p *Packet) error {
	if len(p.Payload) > MaxPacketPayload {
		return ErrPacketSize
	}
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:], uint16(len(p.Payload)))
	binary.BigEndian.PutUint16(hdr[2:], uint16(p.Cmd))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("openft: write packet: %w", err)
	}
	if len(p.Payload) > 0 {
		if _, err := w.Write(p.Payload); err != nil {
			return fmt.Errorf("openft: write packet: %w", err)
		}
	}
	return nil
}

// writeTo stages p into a session's write buffer without flushing, so a
// burst of outbound packets coalesces into one wire write. bufio latches
// errors internally, so byte-at-a-time header staging is safe; the final
// error surfaces here or at Flush.
//
// lint:hotpath
func (p *Packet) writeTo(bw *bufio.Writer) error {
	if len(p.Payload) > MaxPacketPayload {
		return ErrPacketSize
	}
	plen := len(p.Payload)
	bw.WriteByte(byte(plen >> 8))
	bw.WriteByte(byte(plen))
	bw.WriteByte(byte(uint16(p.Cmd) >> 8))
	err := bw.WriteByte(byte(p.Cmd))
	if err == nil && plen > 0 {
		_, err = bw.Write(p.Payload)
	}
	return err
}

// readHeader reads the 4-byte frame header. A *bufio.Reader (the only
// reader the node layer ever passes) takes the byte-at-a-time fast path,
// which keeps a stack header from escaping through the io.Reader
// interface; anything else falls back to ReadFull on a scratch array.
//
// lint:hotpath
func readHeader(r io.Reader) (plen uint16, cmd Command, err error) {
	if br, ok := r.(*bufio.Reader); ok {
		b0, err := br.ReadByte()
		if err != nil {
			return 0, 0, err
		}
		var b1, b2, b3 byte
		if b1, err = br.ReadByte(); err == nil {
			if b2, err = br.ReadByte(); err == nil {
				b3, err = br.ReadByte()
			}
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, err
		}
		return uint16(b0)<<8 | uint16(b1), Command(uint16(b2)<<8 | uint16(b3)), nil
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	return binary.BigEndian.Uint16(hdr[0:]), Command(binary.BigEndian.Uint16(hdr[2:])), nil
}

// ReadPacket reads one framed packet into a payload of its own.
func ReadPacket(r io.Reader) (*Packet, error) {
	plen, cmd, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if int(plen) > MaxPacketPayload {
		return nil, ErrPacketSize
	}
	p := &Packet{Cmd: cmd}
	if plen > 0 {
		p.Payload = make([]byte, plen)
		if _, err := io.ReadFull(r, p.Payload); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// writer/reader helpers for payload fields.

type fieldWriter struct{ b []byte }

// u16 appends a big-endian uint16.
//
// lint:hotpath
func (f *fieldWriter) u16(v uint16) {
	var tmp [2]byte
	binary.BigEndian.PutUint16(tmp[:], v)
	f.b = append(f.b, tmp[:]...)
}

// u32 appends a big-endian uint32.
//
// lint:hotpath
func (f *fieldWriter) u32(v uint32) {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	f.b = append(f.b, tmp[:]...)
}

// str appends a NUL-terminated string.
//
// lint:hotpath
func (f *fieldWriter) str(s string) {
	f.b = append(f.b, s...)
	f.b = append(f.b, 0)
}

// ip appends a 4-byte IPv4 address.
//
// lint:hotpath
func (f *fieldWriter) ip(ip net.IP) {
	v4 := ip.To4()
	if v4 == nil {
		v4 = net.IPv4zero.To4()
	}
	f.b = append(f.b, v4...)
}

type fieldReader struct {
	b   []byte
	err error
}

// u16 consumes a big-endian uint16.
//
// lint:hotpath
func (f *fieldReader) u16() uint16 {
	if f.err != nil || len(f.b) < 2 {
		f.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(f.b)
	f.b = f.b[2:]
	return v
}

// u32 consumes a big-endian uint32.
//
// lint:hotpath
func (f *fieldReader) u32() uint32 {
	if f.err != nil || len(f.b) < 4 {
		f.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(f.b)
	f.b = f.b[4:]
	return v
}

// str consumes a NUL-terminated string.
//
// lint:hotpath
func (f *fieldReader) str() string {
	if f.err != nil {
		return ""
	}
	for i, v := range f.b {
		if v == 0 {
			s := string(f.b[:i])
			f.b = f.b[i+1:]
			return s
		}
	}
	f.fail()
	return ""
}

// ip consumes a 4-byte IPv4 address.
//
// lint:hotpath
func (f *fieldReader) ip() net.IP {
	if f.err != nil || len(f.b) < 4 {
		f.fail()
		return nil
	}
	ip := net.IPv4(f.b[0], f.b[1], f.b[2], f.b[3])
	f.b = f.b[4:]
	return ip
}

// fail latches the truncation error.
//
// lint:hotpath
func (f *fieldReader) fail() {
	if f.err == nil {
		f.err = errors.New("openft: truncated payload")
	}
}

// NodeInfo announces a node's class and transfer endpoint.
type NodeInfo struct {
	Class Class
	IP    net.IP
	Port  uint16
	Alias string
}

// Encode builds a NodeInfo packet.
func (ni NodeInfo) Encode() *Packet {
	w := fieldWriter{b: make([]byte, 0, 2+4+2+len(ni.Alias)+1)}
	w.u16(uint16(ni.Class))
	w.ip(ni.IP)
	w.u16(ni.Port)
	w.str(ni.Alias)
	return &Packet{Cmd: CmdNodeInfo, Payload: w.b}
}

// ParseNodeInfo decodes a NodeInfo payload.
func ParseNodeInfo(b []byte) (NodeInfo, error) {
	r := fieldReader{b: b}
	ni := NodeInfo{Class: Class(r.u16()), IP: r.ip(), Port: r.u16(), Alias: r.str()}
	return ni, r.err
}

// Share describes one shared file in ADDSHARE/REMSHARE.
type Share struct {
	// MD5 is the content hash in hex (OpenFT's file identity).
	MD5 string
	// Size is the byte size.
	Size uint32
	// Path is the shared path/filename.
	Path string
}

// Encode builds an ADDSHARE or REMSHARE packet.
func (s Share) Encode(cmd Command) *Packet {
	w := fieldWriter{b: make([]byte, 0, 4+len(s.MD5)+1+len(s.Path)+1)}
	w.u32(s.Size)
	w.str(s.MD5)
	w.str(s.Path)
	return &Packet{Cmd: cmd, Payload: w.b}
}

// ParseShare decodes an ADDSHARE/REMSHARE payload.
func ParseShare(b []byte) (Share, error) {
	r := fieldReader{b: b}
	s := Share{Size: r.u32(), MD5: r.str(), Path: r.str()}
	return s, r.err
}

// SearchReq asks a SEARCH node to search child shares.
type SearchReq struct {
	// ID correlates responses with the request.
	ID uint32
	// TTL limits forwarding among SEARCH peers.
	TTL uint16
	// Query is the keyword string.
	Query string
}

// Encode builds a SearchReq packet.
func (s SearchReq) Encode() *Packet {
	w := fieldWriter{b: make([]byte, 0, 4+2+len(s.Query)+1)}
	w.u32(s.ID)
	w.u16(s.TTL)
	w.str(s.Query)
	return &Packet{Cmd: CmdSearchReq, Payload: w.b}
}

// ParseSearchReq decodes a search request payload.
func ParseSearchReq(b []byte) (SearchReq, error) {
	r := fieldReader{b: b}
	s := SearchReq{ID: r.u32(), TTL: r.u16(), Query: r.str()}
	return s, r.err
}

// SearchResp carries one result, or the end-of-results marker when End is
// set (wire: zero IP and empty MD5).
type SearchResp struct {
	ID   uint32
	End  bool
	IP   net.IP
	Port uint16
	Size uint32
	MD5  string
	Path string
}

// Encode builds a SearchResp packet.
func (s SearchResp) Encode() *Packet {
	w := fieldWriter{b: make([]byte, 0, 4+4+2+4+len(s.MD5)+1+len(s.Path)+1)}
	w.u32(s.ID)
	if s.End {
		w.ip(net.IPv4zero)
		w.u16(0)
		w.u32(0)
		w.str("")
		w.str("")
	} else {
		w.ip(s.IP)
		w.u16(s.Port)
		w.u32(s.Size)
		w.str(s.MD5)
		w.str(s.Path)
	}
	return &Packet{Cmd: CmdSearchResp, Payload: w.b}
}

// ParseSearchResp decodes a search response payload.
func ParseSearchResp(b []byte) (SearchResp, error) {
	r := fieldReader{b: b}
	s := SearchResp{ID: r.u32(), IP: r.ip(), Port: r.u16(), Size: r.u32()}
	s.MD5 = r.str()
	s.Path = r.str()
	if r.err == nil && s.MD5 == "" && s.IP.Equal(net.IPv4zero) {
		s.End = true
	}
	return s, r.err
}

// NodeListEntry is one advertised node in a NODELIST response.
type NodeListEntry struct {
	IP    net.IP
	Port  uint16
	Class Class
}

// EncodeNodeList builds a NODELIST packet carrying the given entries.
func EncodeNodeList(entries []NodeListEntry) *Packet {
	w := fieldWriter{b: make([]byte, 0, 2+8*len(entries))}
	w.u16(uint16(len(entries)))
	for _, e := range entries {
		w.ip(e.IP)
		w.u16(e.Port)
		w.u16(uint16(e.Class))
	}
	return &Packet{Cmd: CmdNodeList, Payload: w.b}
}

// ParseNodeList decodes a NODELIST payload.
func ParseNodeList(b []byte) ([]NodeListEntry, error) {
	r := fieldReader{b: b}
	n := int(r.u16())
	if n > 4096 {
		return nil, errors.New("openft: node list too long")
	}
	out := make([]NodeListEntry, 0, n)
	for i := 0; i < n; i++ {
		e := NodeListEntry{IP: r.ip(), Port: r.u16(), Class: Class(r.u16())}
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, e)
	}
	return out, r.err
}

// ChildResp answers a child (parent slot) request.
type ChildResp struct {
	Accepted bool
}

// Encode builds a ChildResp packet.
func (c ChildResp) Encode() *Packet {
	v := byte(0)
	if c.Accepted {
		v = 1
	}
	return &Packet{Cmd: CmdChildResp, Payload: []byte{v}}
}

// ParseChildResp decodes a child response payload.
func ParseChildResp(b []byte) (ChildResp, error) {
	if len(b) < 1 {
		return ChildResp{}, errors.New("openft: truncated payload")
	}
	return ChildResp{Accepted: b[0] == 1}, nil
}

// Stats summarizes a SEARCH node's index, for STATS responses.
type Stats struct {
	Children uint32
	Shares   uint32
	SizeKB   uint32
}

// Encode builds a StatsResp packet.
func (s Stats) Encode() *Packet {
	w := fieldWriter{b: make([]byte, 0, 12)}
	w.u32(s.Children)
	w.u32(s.Shares)
	w.u32(s.SizeKB)
	return &Packet{Cmd: CmdStatsResp, Payload: w.b}
}

// ParseStats decodes a stats payload.
func ParseStats(b []byte) (Stats, error) {
	r := fieldReader{b: b}
	s := Stats{Children: r.u32(), Shares: r.u32(), SizeKB: r.u32()}
	return s, r.err
}
