package openft

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/p2p"
)

// flakyTransport fails the first fail dials with a retryable error, then
// delegates, counting every dial.
type flakyTransport struct {
	inner p2p.Transport
	fail  int32
	dials atomic.Int32
}

func (f *flakyTransport) Listen(addr string) (net.Listener, error) { return f.inner.Listen(addr) }

func (f *flakyTransport) Dial(addr string) (net.Conn, error) {
	n := f.dials.Add(1)
	if n <= f.fail {
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: errors.New("flaky: injected dial failure")}
	}
	return f.inner.Dial(addr)
}

// shareServer starts a USER node sharing content and returns its address
// and the content MD5.
func shareServer(t *testing.T, mem *p2p.Mem, content []byte) (addr, sum string) {
	t.Helper()
	lib := p2p.NewLibrary()
	f := p2p.StaticFile("retry target.exe", content)
	lib.Add(f)
	u := NewNode(Config{Class: ClassUser, Transport: mem, ListenAddr: "share:1216",
		AdvertiseIP: net.IPv4(24, 16, 20, 1), AdvertisePort: 1216, Library: lib})
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	// Register the share table entry without a hub (ShareMD5 caches it).
	sum, err := u.ShareMD5(f)
	if err != nil {
		t.Fatal(err)
	}
	digest := md5.Sum(content)
	if want := hex.EncodeToString(digest[:]); sum != want {
		t.Fatalf("ShareMD5 = %s, want %s", sum, want)
	}
	return "share:1216", sum
}

func TestDownloadWithRetryRecoversFromDialFailures(t *testing.T) {
	mem := p2p.NewMem()
	content := bytes.Repeat([]byte("openft retry payload "), 64)
	addr, sum := shareServer(t, mem, content)
	flaky := &flakyTransport{inner: mem, fail: 2}
	policy := p2p.RetryPolicy{Attempts: 3, AttemptTimeout: 5 * time.Second,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}
	got, attempts, err := DownloadAttempts(flaky, addr, sum, policy)
	if err != nil {
		t.Fatalf("retry download failed: %v", err)
	}
	if len(attempts) != 3 || attempts[2].Fate != p2p.FateOK {
		t.Fatalf("attempt log = %+v, want two failures then ok", attempts)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("retry download returned %d bytes, want %d", len(got), len(content))
	}
	if d := flaky.dials.Load(); d != 3 {
		t.Fatalf("dial count = %d, want 3", d)
	}
}

func TestDownloadWithRetryStopsOnNotFound(t *testing.T) {
	mem := p2p.NewMem()
	addr, _ := shareServer(t, mem, []byte("content"))
	flaky := &flakyTransport{inner: mem}
	policy := p2p.RetryPolicy{Attempts: 3, AttemptTimeout: 5 * time.Second,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}
	_, attempts, err := DownloadAttempts(flaky, addr, "00000000000000000000000000000000", policy)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if len(attempts) != 1 || attempts[0].Fate != "not_found" {
		t.Fatalf("attempt log = %+v, want one not_found attempt", attempts)
	}
	if d := flaky.dials.Load(); d != 1 {
		t.Fatalf("dial count = %d after terminal error, want 1", d)
	}
}

func TestDownloadVerifiesMD5(t *testing.T) {
	mem := p2p.NewMem()
	content := bytes.Repeat([]byte{0xEE}, 4<<10)
	addr, sum := shareServer(t, mem, content)
	plan := faultsim.FaultPlan{Corrupt: 1}
	inj := faultsim.NewInjector(&plan, 11, "openft-test", mem)
	_, err := Download(inj.Transport("md5-check"), addr, sum)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted download err = %v, want ErrCorrupt", err)
	}
	if _, err := Download(mem, addr, sum); err != nil {
		t.Fatalf("clean download failed: %v", err)
	}
}
