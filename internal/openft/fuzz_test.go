package openft

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/faultsim"
)

// FuzzReadPacket feeds the packet framer arbitrary streams: it must never
// panic or allocate past MaxPacketPayload, and every accepted packet must
// survive a write/read round trip.
func FuzzReadPacket(f *testing.F) {
	seed := func(p *Packet) []byte {
		var buf bytes.Buffer
		if err := WritePacket(&buf, p); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(NodeInfo{Class: ClassUser, Port: 1215, Alias: "peer", IP: net.IPv4(10, 0, 0, 2)}.Encode()))
	f.Add(seed(SearchReq{ID: 7, Query: "setup exe"}.Encode()))
	f.Add(seed(&Packet{Cmd: CmdStatsReq}))
	f.Add([]byte{0xff, 0xff, 0x00, 0x00})
	f.Add([]byte{})
	// Fault-shaped seeds: the wire damage the injector actually inflicts
	// (truncated prefixes, XOR bursts) applied to a valid packet stream.
	for _, m := range faultsim.Mangle(seed(SearchReq{ID: 9, Query: "mangled query"}.Encode()), 0x5EED) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ReadPacket(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(p.Payload) > MaxPacketPayload {
			t.Fatalf("ReadPacket returned %d-byte payload past MaxPacketPayload", len(p.Payload))
		}
		var buf bytes.Buffer
		if err := WritePacket(&buf, p); err != nil {
			t.Fatalf("rewriting accepted packet: %v", err)
		}
		p2, err := ReadPacket(&buf)
		if err != nil {
			t.Fatalf("rereading rewritten packet: %v", err)
		}
		if p2.Cmd != p.Cmd || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("packet round trip diverged: %v vs %v", p, p2)
		}
	})
}

// rawRespTransport serves a canned byte blob as the HTTP response to any
// dial, after draining the request — a hostile peer for the transfer
// client to chew on.
type rawRespTransport struct{ resp []byte }

func (r *rawRespTransport) Listen(addr string) (net.Listener, error) {
	return nil, fmt.Errorf("rawRespTransport does not listen")
}

func (r *rawRespTransport) Dial(addr string) (net.Conn, error) {
	cli, srv := net.Pipe()
	go func() {
		br := bufio.NewReader(srv)
		for {
			line, err := br.ReadString('\n')
			if err != nil || line == "\r\n" {
				break
			}
		}
		srv.Write(r.resp)
		srv.Close()
	}()
	return cli, nil
}

// FuzzDownloadResponse feeds the transfer client's HTTP response parser
// raw wire bytes — including the truncated and bit-flipped shapes the
// fault injector produces. It must never panic or hang, any body it
// accepts must hash to the MD5 the request asked for — the end-to-end
// integrity check that keeps wire damage out of the labelled trace — and
// it must never accept one under a malformed Content-Length.
func FuzzDownloadResponse(f *testing.F) {
	body := []byte("openft sample body bytes")
	digest := md5.Sum(body)
	sum := hex.EncodeToString(digest[:])
	valid := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	f.Add(valid)
	f.Add([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n"))
	f.Add([]byte{})
	for _, m := range faultsim.Mangle(valid, 0x7A59) {
		f.Add(m)
	}
	for _, length := range malformedLengths {
		f.Add([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s", length, body)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := download(&rawRespTransport{resp: b}, "peer:1216", sum, 5*time.Second)
		if err != nil {
			return
		}
		if malformedLength(b) {
			t.Fatalf("accepted a %d-byte body under a malformed Content-Length", len(got))
		}
		gotDigest := md5.Sum(got)
		if hex.EncodeToString(gotDigest[:]) != sum {
			t.Fatalf("accepted a body that does not hash to the requested MD5")
		}
	})
}

// malformedLengths are Content-Length values that are not non-negative
// decimal integers.
var malformedLengths = []string{"24x", "abc", "-7", "+24", "", "0x18", "2 4"}

// malformedLength reports whether response b's head carries a
// Content-Length that is not a non-negative decimal integer.
func malformedLength(b []byte) bool {
	lines := strings.Split(string(b), "\n")
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			return false
		}
		name, value, ok := strings.Cut(line, ":")
		if ok && strings.EqualFold(strings.TrimSpace(name), "Content-Length") {
			if _, err := strconv.ParseUint(strings.TrimSpace(value), 10, 63); err != nil {
				return true
			}
		}
	}
	return false
}
