package gnutella

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"p2pmalware/internal/bufpool"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/stats"
)

// slabClass is a body length that fills a bufpool slab class exactly, so
// a static file's bytes wrongly handed to the pool would be handed out
// again by the next get of that class and overwritten.
const slabClass = 128 << 10

// testBytes returns n deterministic bytes for seed.
func testBytes(seed uint64, n int) []byte {
	b := make([]byte, n)
	stats.NewRNG(seed, 0xB0D7).Fill(b)
	return b
}

// pooledLazyFile is a lazy file whose every serve generates seed's n bytes
// into a pooled slab, as netsim's honest and decoy files do.
func pooledLazyFile(name string, seed uint64, n int) *p2p.SharedFile {
	return p2p.LazyFile(name, int64(n), func() ([]byte, error) {
		b := bufpool.GetSlab(n)
		stats.NewRNG(seed, 0xB0D7).Fill(b)
		return b, nil
	})
}

type servedFile struct {
	f    *p2p.SharedFile
	want []byte
}

// bodyServer starts a servent sharing two lazy files and a static file of
// exactly one slab class.
func bodyServer(t *testing.T) (*p2p.Mem, []servedFile) {
	t.Helper()
	spec := testBytes(3, slabClass)
	files := []servedFile{
		{pooledLazyFile("lazy large.exe", 1, 100<<10), testBytes(1, 100<<10)},
		{pooledLazyFile("lazy small.zip", 2, 3000), testBytes(2, 3000)},
		{p2p.StaticFile("static specimen.exe", spec), spec},
	}
	lib := p2p.NewLibrary()
	for _, sf := range files {
		if _, err := lib.Add(sf.f); err != nil {
			t.Fatal(err)
		}
	}
	mem := p2p.NewMem()
	server := NewNode(Config{Role: Leaf, Transport: mem, ListenAddr: "srv:1",
		AdvertiseIP: net.IPv4(5, 9, 8, 2), AdvertisePort: 6346, Library: lib})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return mem, files
}

// fetchAndRelease downloads sf, checks its bytes, and hands the body back
// to the pool the way the study does after scanning it.
func fetchAndRelease(mem *p2p.Mem, sf servedFile) error {
	body, err := Download(mem, "srv:1", sf.f.Index, sf.f.Name)
	if err != nil {
		return err
	}
	defer bufpool.PutSlab(body)
	if !bytes.Equal(body, sf.want) {
		return errors.New(sf.f.Name + ": downloaded bytes differ from the file's")
	}
	return nil
}

// TestPooledBodiesSpareStaticFile pins that a static file's bytes never
// reach the pool: downloaded between many lazy serves and pooled
// downloads of its slab class, it keeps its SHA1.
func TestPooledBodiesSpareStaticFile(t *testing.T) {
	mem, files := bodyServer(t)
	static := files[2]
	urn := static.f.SHA1
	for i := 0; i < 40; i++ {
		for _, sf := range files {
			if err := fetchAndRelease(mem, sf); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	if got := p2p.URNSHA1(static.want); got != urn {
		t.Fatalf("static file's bytes changed: SHA1 %s, want %s", got, urn)
	}
}

// TestPooledBodiesConcurrent has one servent answer concurrent downloads
// of lazy and static files from several goroutines; every body must carry
// its file's bytes while serves and downloads recycle slabs around it.
func TestPooledBodiesConcurrent(t *testing.T) {
	mem, files := bodyServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := fetchAndRelease(mem, files[(g+i)%len(files)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledBodiesFailedDownloadErrors pins the errors of a body that
// arrives damaged or short, which hand their slab back before failing:
// a URN mismatch is ErrCorrupt itself, a short body wraps
// io.ErrUnexpectedEOF, and a good download after them is unharmed.
func TestPooledBodiesFailedDownloadErrors(t *testing.T) {
	body := testBytes(4, 100<<10)
	urn := p2p.URNSHA1(body)
	head := "HTTP/1.1 200 OK\r\nX-Gnutella-Content-URN: " + urn + "\r\nContent-Length: 102400\r\n\r\n"
	damaged := append([]byte(nil), body...)
	damaged[len(damaged)/2] ^= 0xFF
	cases := []struct {
		name, resp string
		check      func(error) bool
		msg        string
	}{
		{"corrupt", head + string(damaged), func(err error) bool { return err == ErrCorrupt }, ErrCorrupt.Error()},
		{"truncated", head + string(body[:50000]), func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) },
			"gnutella: download body: unexpected EOF"},
	}
	for _, tc := range cases {
		for i := 0; i < 3; i++ {
			got, err := Download(&rawRespTransport{resp: []byte(tc.resp)}, "peer:6346", 3, "sample.exe")
			if err == nil || !tc.check(err) || err.Error() != tc.msg || got != nil {
				t.Fatalf("%s: got %d bytes, err %v; want nil and %q", tc.name, len(got), err, tc.msg)
			}
		}
	}
	got, err := Download(&rawRespTransport{resp: []byte(head + string(body))}, "peer:6346", 3, "sample.exe")
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("good download after failures: %d bytes, err %v", len(got), err)
	}
}
