package openft

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

func TestPacketRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := &Packet{Cmd: CmdSearchReq, Payload: []byte("hello")}
	if err := WritePacket(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != p.Cmd || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPacketEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	WritePacket(&buf, &Packet{Cmd: CmdChildReq})
	got, err := ReadPacket(&buf)
	if err != nil || got.Cmd != CmdChildReq || len(got.Payload) != 0 {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func TestPacketTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePacket(&buf, &Packet{Cmd: CmdAddShare, Payload: make([]byte, MaxPacketPayload+1)}); err != ErrPacketSize {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeInfoRoundTrip(t *testing.T) {
	ni := NodeInfo{Class: ClassSearch | ClassIndex, IP: net.IPv4(5, 9, 0, 1), Port: 1215, Alias: "hub"}
	got, err := ParseNodeInfo(ni.Encode().Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != ni.Class || !got.IP.Equal(ni.IP) || got.Port != ni.Port || got.Alias != ni.Alias {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestShareRoundTrip(t *testing.T) {
	s := Share{MD5: "d41d8cd98f00b204e9800998ecf8427e", Size: 261632, Path: "ferrox installer.exe"}
	got, err := ParseShare(s.Encode(CmdAddShare).Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}

func TestSearchReqRespRoundTrip(t *testing.T) {
	req := SearchReq{ID: 77, TTL: 2, Query: "ferrox installer"}
	gotReq, err := ParseSearchReq(req.Encode().Payload)
	if err != nil || gotReq != req {
		t.Fatalf("req round trip: %+v, %v", gotReq, err)
	}
	resp := SearchResp{ID: 77, IP: net.IPv4(24, 16, 1, 5), Port: 1216, Size: 1000, MD5: "abc123", Path: "x.exe"}
	gotResp, err := ParseSearchResp(resp.Encode().Payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.End {
		t.Fatal("non-end response parsed as end")
	}
	if gotResp.MD5 != resp.MD5 || gotResp.Path != resp.Path || !gotResp.IP.Equal(resp.IP) {
		t.Fatalf("resp round trip: %+v", gotResp)
	}
	end := SearchResp{ID: 77, End: true}
	gotEnd, err := ParseSearchResp(end.Encode().Payload)
	if err != nil || !gotEnd.End {
		t.Fatalf("end round trip: %+v, %v", gotEnd, err)
	}
}

func TestTruncatedPayloadsRejected(t *testing.T) {
	if _, err := ParseNodeInfo([]byte{1}); err == nil {
		t.Error("short node info accepted")
	}
	if _, err := ParseShare([]byte{0, 0}); err == nil {
		t.Error("short share accepted")
	}
	if _, err := ParseSearchReq([]byte{0}); err == nil {
		t.Error("short search req accepted")
	}
	if _, err := ParseSearchResp([]byte{9}); err == nil {
		t.Error("short search resp accepted")
	}
	if _, err := ParseChildResp(nil); err == nil {
		t.Error("empty child resp accepted")
	}
	if _, err := ParseStats([]byte{1, 2}); err == nil {
		t.Error("short stats accepted")
	}
}

func TestClassString(t *testing.T) {
	if (ClassUser | ClassSearch).String() != "user|search" {
		t.Fatalf("got %q", (ClassUser | ClassSearch).String())
	}
	if Class(0).String() != "none" {
		t.Fatal("zero class name wrong")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// buildTier returns a SEARCH hub and n USER children, each sharing files.
func buildTier(t *testing.T, mem *p2p.Mem, nUsers int, files map[string][]byte) (*Node, []*Node) {
	t.Helper()
	hub := NewNode(Config{Class: ClassSearch | ClassIndex, Transport: mem,
		ListenAddr: "hub:1215", AdvertiseIP: net.IPv4(128, 211, 10, 1), AdvertisePort: 1215, Alias: "hub"})
	if err := hub.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	users := make([]*Node, 0, nUsers)
	for i := 0; i < nUsers; i++ {
		lib := p2p.NewLibrary()
		for name, data := range files {
			lib.Add(p2p.StaticFile(name, data))
		}
		ip := net.IPv4(24, 16, 10, byte(i+1))
		addr := ip.String() + ":1216"
		u := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: addr,
			AdvertiseIP: ip, AdvertisePort: 1216, Library: lib})
		if err := u.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		if err := u.BecomeChildOf("hub:1215"); err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	// BecomeChildOf returns once the hub accepts; the hub applies the
	// ADDSHARE stream on its own reader afterwards.
	waitFor(t, func() bool { return hub.ChildShareCount() == nUsers*len(files) })
	return hub, users
}

func TestChildRegistrationAndSearch(t *testing.T) {
	mem := p2p.NewMem()
	content := []byte("openft shared bytes")
	_, _ = buildTier(t, mem, 3, map[string][]byte{"ferrox installer.exe": content})

	var mu sync.Mutex
	var results []SearchResp
	searcher := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "searcher:1216",
		AdvertiseIP: net.IPv4(24, 16, 10, 99), AdvertisePort: 1216,
		OnSearchResult: func(r SearchResp) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	if err := searcher.Connect("hub:1215"); err != nil {
		t.Fatal(err)
	}
	if _, err := searcher.Search("ferrox installer"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	for _, r := range results {
		if r.Path != "ferrox installer.exe" || r.Size != uint32(len(content)) {
			t.Fatalf("bad result: %+v", r)
		}
		if r.MD5 == "" {
			t.Fatal("result missing MD5")
		}
	}
}

func TestSearchNoMatches(t *testing.T) {
	mem := p2p.NewMem()
	_, _ = buildTier(t, mem, 2, map[string][]byte{"something else.zip": []byte("x")})
	var mu sync.Mutex
	var results []SearchResp
	searcher := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "s:1",
		AdvertiseIP: net.IPv4(24, 16, 10, 99), AdvertisePort: 1216,
		OnSearchResult: func(r SearchResp) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("hub:1215")
	searcher.Search("completely unrelated")
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 0 {
		t.Fatalf("got %d results for non-matching query", len(results))
	}
}

func TestSearchForwardsBetweenSearchNodes(t *testing.T) {
	mem := p2p.NewMem()
	// hub1 -- hub2, file lives under hub2.
	hub1 := NewNode(Config{Class: ClassSearch, Transport: mem, ListenAddr: "hub1:1215",
		AdvertiseIP: net.IPv4(128, 211, 11, 1), AdvertisePort: 1215})
	hub2 := NewNode(Config{Class: ClassSearch, Transport: mem, ListenAddr: "hub2:1215",
		AdvertiseIP: net.IPv4(128, 211, 11, 2), AdvertisePort: 1215})
	for _, h := range []*Node{hub1, hub2} {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		defer h.Close()
	}
	if err := hub1.Connect("hub2:1215"); err != nil {
		t.Fatal(err)
	}

	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("remote rare file.exe", []byte("remote")))
	u := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "u:1216",
		AdvertiseIP: net.IPv4(24, 16, 11, 1), AdvertisePort: 1216, Library: lib})
	u.Start()
	defer u.Close()
	if err := u.BecomeChildOf("hub2:1215"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hub2.ChildShareCount() == 1 })

	var mu sync.Mutex
	var results []SearchResp
	searcher := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "s:1216",
		AdvertiseIP: net.IPv4(24, 16, 11, 9), AdvertisePort: 1216,
		OnSearchResult: func(r SearchResp) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("hub1:1215")
	searcher.Search("remote rare")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) >= 1
	})
	mu.Lock()
	defer mu.Unlock()
	if results[0].Path != "remote rare file.exe" {
		t.Fatalf("result = %+v", results[0])
	}
	if !results[0].IP.Equal(net.IPv4(24, 16, 11, 1)) {
		t.Fatalf("result IP = %v, want the sharing user's", results[0].IP)
	}
}

func TestDownloadByMD5(t *testing.T) {
	mem := p2p.NewMem()
	content := bytes.Repeat([]byte("FTDATA"), 300)
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("downloadable.exe", content)
	lib.Add(f)
	u := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "u:1216",
		AdvertiseIP: net.IPv4(24, 16, 12, 1), AdvertisePort: 1216, Library: lib})
	u.Start()
	defer u.Close()

	sum, err := u.ShareMD5(f)
	if err != nil {
		t.Fatal(err)
	}
	want := md5.Sum(content)
	if sum != hex.EncodeToString(want[:]) {
		t.Fatalf("ShareMD5 = %s", sum)
	}
	got, err := Download(mem, "u:1216", sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("downloaded %d bytes", len(got))
	}
	if _, err := Download(mem, "u:1216", "0000000000000000000000000000dead"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestDownloadRejectsMalformedContentLength pins that a Content-Length the
// client cannot read fails the download as malformed: it must not pass
// for an empty body, or for one that runs to EOF, and the content check
// must not be what catches it.
func TestDownloadRejectsMalformedContentLength(t *testing.T) {
	body := []byte("openft sample body bytes")
	digest := md5.Sum(body)
	sum := hex.EncodeToString(digest[:])
	for _, length := range malformedLengths {
		resp := "HTTP/1.1 200 OK\r\nContent-Length: " + length + "\r\n\r\n" + string(body)
		got, err := Download(&rawRespTransport{resp: []byte(resp)}, "peer:1216", sum)
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Errorf("Content-Length %q: got %d bytes, err %v; want a malformed-length error", length, len(got), err)
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
	n := NewNode(Config{Class: ClassUser, Transport: p2p.NewMem(), Library: lib})
	sum, err := n.ShareMD5(f)
	if err != nil {
		t.Fatal(err)
	}
	out := obs.C("p2p_transfer_bytes_total", "network", "openft", "dir", "out")
	before := out.Value()
	srv, cli := net.Pipe()
	go func() {
		defer cli.Close()
		fmt.Fprintf(cli, "GET /md5/%s HTTP/1.1\r\n\r\n", sum)
		br := bufio.NewReader(cli) // the head arrives in one write
		for line := ""; line != "\r\n"; {
			var err error
			if line, err = br.ReadString('\n'); err != nil {
				return
			}
		}
		io.ReadFull(cli, make([]byte, 1000))
	}()
	n.serveHTTP(srv, bufio.NewReader(srv))
	if got := out.Value() - before; got != 1000 {
		t.Fatalf("upload counter grew by %d bytes, want the 1000 the requester read", got)
	}
}

func TestChildRefusedByUserNode(t *testing.T) {
	mem := p2p.NewMem()
	plainUser := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "pu:1216",
		AdvertiseIP: net.IPv4(24, 16, 13, 1), AdvertisePort: 1216})
	plainUser.Start()
	defer plainUser.Close()
	other := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "o:1216",
		AdvertiseIP: net.IPv4(24, 16, 13, 2), AdvertisePort: 1216})
	other.Start()
	defer other.Close()
	if err := other.BecomeChildOf("pu:1216"); err == nil {
		t.Fatal("USER node accepted a child")
	}
}

func TestMaxChildrenEnforced(t *testing.T) {
	mem := p2p.NewMem()
	hub := NewNode(Config{Class: ClassSearch, Transport: mem, ListenAddr: "hub:1215",
		AdvertiseIP: net.IPv4(128, 211, 14, 1), AdvertisePort: 1215, MaxChildren: 1})
	hub.Start()
	defer hub.Close()
	u1 := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "u1:1216",
		AdvertiseIP: net.IPv4(24, 16, 14, 1), AdvertisePort: 1216})
	u1.Start()
	defer u1.Close()
	if err := u1.BecomeChildOf("hub:1215"); err != nil {
		t.Fatal(err)
	}
	u2 := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "u2:1216",
		AdvertiseIP: net.IPv4(24, 16, 14, 2), AdvertisePort: 1216})
	u2.Start()
	defer u2.Close()
	if err := u2.BecomeChildOf("hub:1215"); err == nil {
		t.Fatal("child accepted beyond MaxChildren")
	}
}

// rawSession dials addr and completes the VersionReq/NodeInfo handshake
// by hand as a USER node, so the test reads the remote's answers packet
// by packet.
func rawSession(t *testing.T, mem *p2p.Mem, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := mem.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	info := NodeInfo{Class: ClassUser, IP: net.IPv4(24, 16, 15, 1), Port: 1216, Alias: "probe"}
	if err := WritePacket(c, &Packet{Cmd: CmdVersionReq}); err != nil {
		t.Fatal(err)
	}
	if err := WritePacket(c, info.Encode()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for _, want := range []Command{CmdVersionResp, CmdNodeInfo} {
		if p, err := ReadPacket(br); err != nil || p.Cmd != want {
			t.Fatalf("handshake: got %v, %v; want %v", p, err, want)
		}
	}
	return c, br
}

// ask sends a payload-less request on a raw session and returns the first
// packet of the answering command.
func ask(t *testing.T, c net.Conn, br *bufio.Reader, req, resp Command) *Packet {
	t.Helper()
	if err := WritePacket(c, &Packet{Cmd: req}); err != nil {
		t.Fatal(err)
	}
	for {
		p, err := ReadPacket(br)
		if err != nil {
			t.Fatalf("no %v answer: %v", resp, err)
		}
		if p.Cmd == resp {
			return p
		}
	}
}

func TestStats(t *testing.T) {
	mem := p2p.NewMem()
	_, _ = buildTier(t, mem, 2, map[string][]byte{
		"a file.exe":      bytes.Repeat([]byte("x"), 2048),
		"big archive.zip": bytes.Repeat([]byte("y"), 5000),
	})
	c, br := rawSession(t, mem, "hub:1215")
	st, err := ParseStats(ask(t, c, br, CmdStatsReq, CmdStatsResp).Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Each child shares 2 KB and 5000 B (4 KB, rounded down per share).
	if st.Children != 2 || st.Shares != 4 || st.SizeKB != 12 {
		t.Fatalf("stats = %+v, want 2 children, 4 shares, 12 KB", st)
	}
}

func TestSearchDedupAcrossHubs(t *testing.T) {
	mem := p2p.NewMem()
	// Triangle of hubs: the same search must be answered once per hub,
	// not once per arrival path.
	hubs := make([]*Node, 3)
	names := []string{"h0:1", "h1:1", "h2:1"}
	for i := range hubs {
		hubs[i] = NewNode(Config{Class: ClassSearch, Transport: mem, ListenAddr: names[i],
			AdvertiseIP: net.IPv4(128, 211, 16, byte(i+1)), AdvertisePort: 1215, SearchTTL: 3})
		if err := hubs[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer hubs[i].Close()
	}
	hubs[0].Connect("h1:1")
	hubs[1].Connect("h2:1")
	hubs[2].Connect("h0:1")

	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("triangle file.exe", []byte("x")))
	u := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(24, 16, 16, 1), AdvertisePort: 1216, Library: lib})
	u.Start()
	defer u.Close()
	if err := u.BecomeChildOf("h2:1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hubs[2].ChildShareCount() == 1 })

	var mu sync.Mutex
	var results []SearchResp
	searcher := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "s:1",
		AdvertiseIP: net.IPv4(24, 16, 16, 2), AdvertisePort: 1216, SearchTTL: 3,
		OnSearchResult: func(r SearchResp) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("h0:1")
	searcher.Search("triangle file")
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 1 {
		t.Fatalf("got %d results, want exactly 1 (dedup)", len(results))
	}
}

func TestNodeListExchange(t *testing.T) {
	mem := p2p.NewMem()
	// Two SEARCH hubs meshed; a user asks hub1 for its node list and
	// should learn about hub2.
	hub1 := NewNode(Config{Class: ClassSearch, Transport: mem, ListenAddr: "hub1:1215",
		AdvertiseIP: net.IPv4(128, 211, 30, 1), AdvertisePort: 1215})
	hub2 := NewNode(Config{Class: ClassSearch | ClassIndex, Transport: mem, ListenAddr: "hub2:1215",
		AdvertiseIP: net.IPv4(128, 211, 30, 2), AdvertisePort: 1215})
	for _, h := range []*Node{hub1, hub2} {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		defer h.Close()
	}
	if err := hub1.Connect("hub2:1215"); err != nil {
		t.Fatal(err)
	}
	c, br := rawSession(t, mem, "hub1:1215")
	entries, err := ParseNodeList(ask(t, c, br, CmdNodeListReq, CmdNodeList).Payload)
	if err != nil {
		t.Fatal(err)
	}
	// The user itself is neither SEARCH nor INDEX, so hub2 is the only
	// node to list.
	want := NodeListEntry{IP: net.IPv4(128, 211, 30, 2), Port: 1215, Class: ClassSearch | ClassIndex}
	if len(entries) != 1 || !entries[0].IP.Equal(want.IP) || entries[0].Port != want.Port || entries[0].Class != want.Class {
		t.Fatalf("node list = %+v, want [%+v]", entries, want)
	}
}

func TestNodeListRoundTrip(t *testing.T) {
	entries := []NodeListEntry{
		{IP: net.IPv4(1, 2, 3, 4), Port: 1215, Class: ClassSearch},
		{IP: net.IPv4(5, 6, 7, 8), Port: 1216, Class: ClassSearch | ClassIndex},
	}
	got, err := ParseNodeList(EncodeNodeList(entries).Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
	for i := range entries {
		if !got[i].IP.Equal(entries[i].IP) || got[i].Port != entries[i].Port || got[i].Class != entries[i].Class {
			t.Fatalf("entry %d = %+v", i, got[i])
		}
	}
	if _, err := ParseNodeList([]byte{0, 5, 1}); err == nil {
		t.Fatal("truncated node list accepted")
	}
	empty, err := ParseNodeList(EncodeNodeList(nil).Payload)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty list: %v, %v", empty, err)
	}
}
