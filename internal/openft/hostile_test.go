package openft

import (
	"net"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/p2p"
)

// hostileHub builds a hub with one honest sharing child; verify() asserts
// honest searches still work after an attack.
func hostileHub(t *testing.T) (*p2p.Mem, func()) {
	t.Helper()
	mem := p2p.NewMem()
	hub := NewNode(Config{Class: ClassSearch, Transport: mem, ListenAddr: "hub:1",
		AdvertiseIP: net.IPv4(128, 211, 40, 1), AdvertisePort: 1215})
	if err := hub.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })

	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("canary share.exe", []byte("ok")))
	u := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(24, 16, 40, 1), AdvertisePort: 1216, Library: lib})
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	if err := u.BecomeChildOf("hub:1"); err != nil {
		t.Fatal(err)
	}

	verify := func() {
		t.Helper()
		var mu sync.Mutex
		got := 0
		searcher := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "v:1",
			AdvertiseIP: net.IPv4(24, 16, 40, 2), AdvertisePort: 1216,
			OnSearchResult: func(r SearchResp) {
				mu.Lock()
				got++
				mu.Unlock()
			}})
		if err := searcher.Start(); err != nil {
			t.Fatal(err)
		}
		defer searcher.Close()
		if err := searcher.Connect("hub:1"); err != nil {
			t.Fatalf("hub no longer accepts honest peers: %v", err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for {
			searcher.Search("canary share")
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			ok := got > 0
			mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("hub stopped answering honest searches after attack")
			}
		}
	}
	return mem, verify
}

func TestSurvivesGarbageStream(t *testing.T) {
	mem, verify := hostileHub(t)
	c, err := mem.Dial("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("GETTING WEIRD \xde\xad\xbe\xef not a packet"))
	c.Close()
	verify()
}

func TestSurvivesWrongOpeningCommand(t *testing.T) {
	mem, verify := hostileHub(t)
	c, err := mem.Dial("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	// First packet must be VersionReq; send AddShare instead.
	WritePacket(c, Share{MD5: "x", Size: 1, Path: "y"}.Encode(CmdAddShare))
	c.Close()
	verify()
}

func TestSurvivesOversizedPacketClaim(t *testing.T) {
	mem, verify := hostileHub(t)
	c, err := mem.Dial("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	// Length field larger than MaxPacketPayload.
	c.Write([]byte{0xFF, 0xFF, 0x00, 0x00})
	c.Close()
	verify()
}

func TestSurvivesMalformedSessionTraffic(t *testing.T) {
	mem, verify := hostileHub(t)
	evil := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "evil:1",
		AdvertiseIP: net.IPv4(6, 6, 6, 6), AdvertisePort: 1216})
	evil.Start()
	defer evil.Close()
	s, err := evil.connect("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	// Shares without child registration must be ignored.
	s.Send(Share{MD5: "deadbeef", Size: 666, Path: "canary share.exe"}.Encode(CmdAddShare))
	// Truncated search request.
	s.Send(&Packet{Cmd: CmdSearchReq, Payload: []byte{1}})
	// Search responses for unknown IDs.
	s.Send(SearchResp{ID: 0xFFFF_FF01, IP: net.IPv4(6, 6, 6, 6), Port: 1, Size: 1, MD5: "m", Path: "p"}.Encode())
	// Unknown command.
	s.Send(&Packet{Cmd: Command(0x7777), Payload: []byte("??")})
	time.Sleep(50 * time.Millisecond)
	verify()
}

func TestUnregisteredSharesNotSearchable(t *testing.T) {
	mem, _ := hostileHub(t)
	// A non-child peer pushes shares; they must not pollute the index.
	evil := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "evil2:1",
		AdvertiseIP: net.IPv4(6, 6, 6, 7), AdvertisePort: 1216})
	evil.Start()
	defer evil.Close()
	s, err := evil.connect("hub:1")
	if err != nil {
		t.Fatal(err)
	}
	s.Send(Share{MD5: "feedface", Size: 1234, Path: "polluted unique zzyzx.exe"}.Encode(CmdAddShare))
	time.Sleep(50 * time.Millisecond)

	var mu sync.Mutex
	got := 0
	searcher := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "s2:1",
		AdvertiseIP: net.IPv4(24, 16, 40, 9), AdvertisePort: 1216,
		OnSearchResult: func(r SearchResp) {
			mu.Lock()
			got++
			mu.Unlock()
		}})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("hub:1")
	searcher.Search("polluted zzyzx")
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if got != 0 {
		t.Fatalf("unregistered share surfaced in %d search results", got)
	}
}
