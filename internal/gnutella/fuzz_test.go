package gnutella

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/p2p"
)

// FuzzParsePong hammers the pong decoder with arbitrary payloads: it must
// never panic, and every accepted payload must survive a decode/encode
// round trip — the properties a hostile servent's pongs get to test in a
// live crawl.
func FuzzParsePong(f *testing.F) {
	f.Add(Pong{Port: 6346, IP: net.IPv4(10, 0, 0, 1), Files: 42, KB: 1024}.Encode())
	f.Add(Pong{Port: 65535, IP: net.IPv4(255, 255, 255, 255), Files: ^uint32(0), KB: ^uint32(0)}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	// Fault-shaped seeds: the wire damage the injector actually inflicts
	// (truncated prefixes, XOR bursts) applied to a valid pong.
	for _, m := range faultsim.Mangle(Pong{Port: 6346, IP: net.IPv4(24, 16, 1, 9), Files: 7, KB: 99}.Encode(), 0x5EED) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParsePong(b)
		if err != nil {
			return
		}
		out := p.Encode()
		if !bytes.Equal(out, b[:14]) {
			t.Fatalf("pong round trip diverged:\n in  %x\n out %x", b[:14], out)
		}
	})
}

// FuzzDownloadResponse feeds the transfer client's HTTP response parser
// raw wire bytes — including the truncated and bit-flipped shapes the
// fault injector produces — through a real connection. It must never
// panic or hang, never hand back a body past MaxTransferSize, never
// accept a body that contradicts an advertised content URN, and never
// accept one under a malformed Content-Length.
func FuzzDownloadResponse(f *testing.F) {
	body := []byte("malware sample body bytes")
	urn := p2p.URNSHA1(body)
	valid := []byte("HTTP/1.1 200 OK\r\nContent-Length: 25\r\n\r\n" + string(body))
	withURN := []byte("HTTP/1.1 200 OK\r\nX-Gnutella-Content-URN: " + urn + "\r\nContent-Length: 25\r\n\r\n" + string(body))
	f.Add(valid)
	f.Add(withURN)
	f.Add([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n"))
	f.Add([]byte{})
	for _, m := range faultsim.Mangle(valid, 0x7A57) {
		f.Add(m)
	}
	for _, m := range faultsim.Mangle(withURN, 0x7A58) {
		f.Add(m)
	}
	for _, length := range malformedLengths {
		f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: " + length + "\r\n\r\n" + string(body)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, _, err := DownloadAttempts(&rawRespTransport{resp: b}, "peer:6346", 3, "sample.exe",
			p2p.RetryPolicy{Attempts: 1, AttemptTimeout: 5 * time.Second})
		if err != nil {
			return
		}
		if malformedLength(b) {
			t.Fatalf("accepted a %d-byte body under a malformed Content-Length", len(got))
		}
		if len(got) > p2p.MaxTransferSize {
			t.Fatalf("accepted %d-byte body past MaxTransferSize", len(got))
		}
		head, _, ok := bytes.Cut(b, []byte("\r\n\r\n"))
		if ok && bytes.Contains(head, []byte("\r\nX-Gnutella-Content-URN: "+urn+"\r\n")) && p2p.URNSHA1(got) != urn {
			t.Fatalf("accepted a body that contradicts its advertised URN")
		}
	})
}

// rawRespTransport serves a canned byte blob as the HTTP response to any
// dial, after draining the request — a hostile servent for the transfer
// client to chew on.
type rawRespTransport struct{ resp []byte }

func (r *rawRespTransport) Listen(addr string) (net.Listener, error) {
	return nil, errors.New("rawRespTransport does not listen")
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

// malformedLengths are Content-Length values that are not non-negative
// decimal integers.
var malformedLengths = []string{"25x", "abc", "-7", "+25", "", "0x19", "2 5"}

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
