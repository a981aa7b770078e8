package gnutella

import (
	"net"
	"testing"
	"time"

	"p2pmalware/internal/guid"
	"p2pmalware/internal/p2p"
)

func BenchmarkQueryEncode(b *testing.B) {
	q := Query{MinSpeed: 0, Criteria: "britney spears greatest hits", Extensions: "urn:sha1:ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Encode()
	}
}

func BenchmarkQueryParse(b *testing.B) {
	payload := Query{MinSpeed: 0, Criteria: "britney spears greatest hits"}.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryHitEncode(b *testing.B) {
	qh := QueryHit{
		Port: 6346, IP: net.IPv4(10, 0, 0, 1), Speed: 1000,
		Hits: []Hit{
			{Index: 1, Size: 184342, Name: "some query derived filename.exe", Extensions: "urn:sha1:XYZ"},
			{Index: 2, Size: 232960, Name: "another file entirely.zip"},
		},
		Vendor: "LIME", ServentID: guid.New(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := qh.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryHitParse(b *testing.B) {
	qh := QueryHit{
		Port: 6346, IP: net.IPv4(10, 0, 0, 1), Speed: 1000,
		Hits:   []Hit{{Index: 1, Size: 184342, Name: "some query derived filename.exe"}},
		Vendor: "LIME", ServentID: guid.New(),
	}
	payload, _ := qh.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQueryHit(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRPHash(b *testing.B) {
	words := []string{"britney", "spears", "installer", "photoshop", "linux", "warcraft"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = QRPHash(words[i%len(words)], QRPTableBits)
	}
}

func BenchmarkQRPMightMatch(b *testing.B) {
	lib := p2p.NewLibrary()
	names := []string{"britney spears toxic.mp3", "ubuntu linux iso.zip", "photoshop installer.exe"}
	for _, n := range names {
		lib.Add(p2p.StaticFile(n, []byte(n)))
	}
	t := NewQRPTable(QRPTableBits)
	t.AddLibrary(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.MightMatch("britney toxic")
	}
}

func BenchmarkConnWriteRead(b *testing.B) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	w, r := newWireConn(c1), newWireConn(c2)
	m := &Message{GUID: guid.New(), Type: MsgQuery, TTL: 4, Payload: Query{Criteria: "benchmark query"}.Encode()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := r.Read(); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(m); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// BenchmarkEndToEndQuery measures query->hit latency across a 1-ultrapeer,
// 1-leaf overlay on the in-memory transport.
func BenchmarkEndToEndQuery(b *testing.B) {
	mem := p2p.NewMem()
	up := NewNode(Config{Role: Ultrapeer, Transport: mem, ListenAddr: "u:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 1), AdvertisePort: 6346})
	if err := up.Start(); err != nil {
		b.Fatal(err)
	}
	defer up.Close()

	lib := p2p.NewLibrary()
	lib.Add(p2p.StaticFile("benchmark target file.exe", []byte("x")))
	leaf := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "l:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 2), AdvertisePort: 6346, Library: lib})
	leaf.Start()
	defer leaf.Close()
	leaf.Connect("u:1")

	hits := make(chan struct{}, 64)
	searcher := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "s:1",
		AdvertiseIP: net.IPv4(5, 9, 0, 3), AdvertisePort: 6346,
		OnQueryHit: func(qh *QueryHit, m *Message) { hits <- struct{}{} }})
	searcher.Start()
	defer searcher.Close()
	searcher.Connect("u:1")

	// Wait for QRP to propagate before timing: retry the warm-up query
	// until a hit arrives.
	for warm := 0; ; warm++ {
		if _, err := searcher.Query("benchmark target", ""); err != nil {
			b.Fatal(err)
		}
		select {
		case <-hits:
		case <-time.After(50 * time.Millisecond):
			if warm > 100 {
				b.Fatal("warm-up query never answered")
			}
			continue
		}
		break
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searcher.Query("benchmark target", ""); err != nil {
			b.Fatal(err)
		}
		<-hits
	}
}
