package gnutella

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"testing/quick"

	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

func rangeServer(t *testing.T) (*p2p.Mem, *p2p.SharedFile, []byte) {
	t.Helper()
	mem := p2p.NewMem()
	content := make([]byte, 10000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("ranged file.exe", content)
	lib.Add(f)
	server := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "srv:1",
		AdvertiseIP: net.IPv4(5, 9, 8, 1), AdvertisePort: 6346, Library: lib})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return mem, f, content
}

func TestDownloadRangeMiddle(t *testing.T) {
	mem, f, content := rangeServer(t)
	got, err := DownloadRange(mem, "srv:1", f.Index, f.Name, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[100:150]) {
		t.Fatalf("range bytes wrong: %d bytes", len(got))
	}
}

func TestDownloadRangeToEnd(t *testing.T) {
	mem, f, content := rangeServer(t)
	got, err := DownloadRange(mem, "srv:1", f.Index, f.Name, 9000, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[9000:]) {
		t.Fatalf("tail range wrong: %d bytes", len(got))
	}
}

func TestDownloadRangeClampsPastEnd(t *testing.T) {
	mem, f, content := rangeServer(t)
	got, err := DownloadRange(mem, "srv:1", f.Index, f.Name, 9990, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[9990:]) {
		t.Fatalf("clamped range = %d bytes", len(got))
	}
}

// TestDownloadRangeIgnoresWholeFileURN pins that a partial response
// labelled with the whole file's content URN, as HUGE servents label
// theirs, still yields its slice: the URN names the file, not the range.
func TestDownloadRangeIgnoresWholeFileURN(t *testing.T) {
	content := []byte("the whole specimen, of which the client asks for a slice")
	resp := fmt.Sprintf("HTTP/1.1 206 Partial Content\r\nContent-Length: 5\r\nContent-Range: bytes 4-8/%d\r\nX-Gnutella-Content-URN: %s\r\n\r\n%s",
		len(content), p2p.URNSHA1(content), content[4:9])
	got, err := DownloadRange(&rawRespTransport{resp: []byte(resp)}, "peer:6346", 3, "sample.exe", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[4:9]) {
		t.Fatalf("range body = %q, want %q", got, content[4:9])
	}
}

func TestDownloadRangeUnsatisfiable(t *testing.T) {
	mem, f, _ := rangeServer(t)
	if _, err := DownloadRange(mem, "srv:1", f.Index, f.Name, 100000, 10); err == nil {
		t.Fatal("out-of-range request succeeded")
	}
}

func TestDownloadRangeResumeReassembly(t *testing.T) {
	// Fetch a file in three chunks and reassemble — the resume scenario.
	mem, f, content := rangeServer(t)
	var assembled []byte
	for off := int64(0); off < f.Size; off += 4096 {
		length := int64(4096)
		chunk, err := DownloadRange(mem, "srv:1", f.Index, f.Name, off, length)
		if err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
		assembled = append(assembled, chunk...)
	}
	if !bytes.Equal(assembled, content) {
		t.Fatal("reassembled file differs")
	}
}

func TestParseByteRange(t *testing.T) {
	cases := []struct {
		h      string
		size   int64
		lo, hi int64
		ok     bool
	}{
		{"bytes=0-99", 1000, 0, 99, true},
		{"bytes=100-", 1000, 100, 999, true},
		{"bytes=-200", 1000, 800, 999, true},
		{"bytes=-2000", 1000, 0, 999, true},
		{"bytes=500-9999", 1000, 500, 999, true},
		{"Bytes= 0 - 9", 1000, 0, 9, true},
		{"bytes=999-999", 1000, 999, 999, true},
		{"bytes=1000-", 1000, 0, 0, false},
		{"bytes=5-2", 1000, 0, 0, false},
		{"bytes=0-1,5-9", 1000, 0, 0, false},
		{"chunks=0-1", 1000, 0, 0, false},
		{"bytes=abc-def", 1000, 0, 0, false},
		{"bytes=-0", 1000, 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, ok := parseByteRange(c.h, c.size)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("parseByteRange(%q, %d) = %d, %d, %v; want %d, %d, %v",
				c.h, c.size, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

func TestQuickParseByteRangeInvariants(t *testing.T) {
	f := func(lo uint16, span uint8, size uint16) bool {
		if size == 0 {
			return true
		}
		h := "bytes=" + itoa(int64(lo)) + "-" + itoa(int64(lo)+int64(span))
		gotLo, gotHi, ok := parseByteRange(h, int64(size))
		if !ok {
			// Must only fail when lo is past the end.
			return int64(lo) >= int64(size)
		}
		return gotLo == int64(lo) && gotHi >= gotLo && gotHi < int64(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestUnionOfURNLookup(t *testing.T) {
	// /uri-res/N2R resolution by SHA1 URN.
	mem := p2p.NewMem()
	content := []byte("urn addressed content")
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("urn file.exe", content)
	lib.Add(f)
	server := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "srv:1",
		AdvertiseIP: net.IPv4(5, 9, 8, 2), AdvertisePort: 6346, Library: lib})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	got := server.resolvePath("/uri-res/N2R?" + f.SHA1)
	if got != f {
		t.Fatal("URN resolution failed")
	}
	if server.resolvePath("/uri-res/N2R?urn:sha1:WRONG") != nil {
		t.Fatal("bogus URN resolved")
	}
}

// TestDownloadRejectsMalformedContentLength pins that a Content-Length the
// client cannot read fails the download: it must not pass for an empty
// body, or for one that runs to EOF.
func TestDownloadRejectsMalformedContentLength(t *testing.T) {
	for _, length := range malformedLengths {
		resp := "HTTP/1.1 200 OK\r\nContent-Length: " + length + "\r\n\r\nmalware sample body bytes"
		if body, err := Download(&rawRespTransport{resp: []byte(resp)}, "peer:6346", 3, "sample.exe"); err == nil {
			t.Errorf("Content-Length %q: got a %d-byte body, want an error", length, len(body))
		}
	}
}

// TestUploadCountsAcceptedBytes pins that the upload byte counter counts
// what the connection accepted: a requester that hangs up part-way
// through the body is credited with the bytes it read, not the file size.
func TestUploadCountsAcceptedBytes(t *testing.T) {
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("upload.exe", bytes.Repeat([]byte{7}, 4096))
	lib.Add(f)
	n := NewNode(Config{Transport: p2p.NewMem(), Library: lib})
	out := obs.C("p2p_transfer_bytes_total", "network", "gnutella", "dir", "out")
	before := out.Value()
	srv, cli := net.Pipe()
	go func() {
		defer cli.Close()
		fmt.Fprintf(cli, "GET /get/%d/upload.exe HTTP/1.1\r\n\r\n", f.Index)
		br := bufio.NewReader(cli) // the head arrives in one write
		for line := ""; line != "\r\n"; {
			var err error
			if line, err = br.ReadString('\n'); err != nil {
				return
			}
		}
		io.ReadFull(cli, make([]byte, 1000))
	}()
	n.serveRequest(srv, bufio.NewReader(srv), false)
	srv.Close()
	if got := out.Value() - before; got != 1000 {
		t.Fatalf("upload counter grew by %d bytes, want the 1000 the requester read", got)
	}
}
