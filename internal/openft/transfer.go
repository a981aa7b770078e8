package openft

import (
	"bufio"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"p2pmalware/internal/bufpool"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/simclock"
)

// OpenFT transfers are HTTP on the node's port, addressed by content MD5:
//
//	GET /md5/<hex> HTTP/1.1
//
// (giFT used an equivalent hash-addressed request form.)

// ErrNotFound is returned when the remote does not share the requested
// hash.
var ErrNotFound = errors.New("openft: file not found")

// ErrCorrupt means the body did not hash to the MD5 it was requested by —
// bytes were damaged in flight.
var ErrCorrupt = errors.New("openft: content hash mismatch")

// Retryable reports whether a transfer error is worth another attempt.
// Not-found is a property of the remote node; everything else (dial
// refusal, reset, truncation, timeout, corruption) can succeed on retry.
func Retryable(err error) bool {
	return !errors.Is(err, ErrNotFound)
}

// MaxTransferSize caps a single HTTP transfer body; a hostile child
// advertising an absurd Content-Length must not drive a one-shot
// allocation.
const MaxTransferSize = 64 << 20

// readBody reads a response body whose length the peer advertised,
// clamped against MaxTransferSize before any allocation; peerLen < 0 (no
// Content-Length header) reads to EOF under the same cap through a pooled
// staging buffer.
func readBody(br *bufio.Reader, peerLen int64) ([]byte, error) {
	if peerLen > MaxTransferSize {
		met.clamped.Inc()
		return nil, fmt.Errorf("openft: content length %d exceeds transfer cap %d", peerLen, int64(MaxTransferSize))
	}
	if peerLen < 0 {
		stage := bufpool.GetBuffer()
		defer bufpool.PutBuffer(stage)
		if _, err := io.Copy(stage, io.LimitReader(br, MaxTransferSize)); err != nil {
			return nil, fmt.Errorf("openft: download body: %w", err)
		}
		body := make([]byte, stage.Len())
		copy(body, stage.Bytes())
		met.bytesIn.Add(int64(len(body)))
		return body, nil
	}
	body := make([]byte, peerLen)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("openft: download body: %w", err)
	}
	met.bytesIn.Add(peerLen)
	return body, nil
}

func (n *Node) serveHTTP(c net.Conn, br *bufio.Reader) {
	defer c.Close()
	c.SetDeadline(ioDeadline(30 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 3 || (fields[0] != "GET" && fields[0] != "HEAD") {
		fmt.Fprintf(c, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
		return
	}
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return
		}
		if strings.TrimSpace(h) == "" {
			break
		}
	}
	sum, ok := strings.CutPrefix(fields[1], "/md5/")
	if !ok {
		fmt.Fprintf(c, "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
		return
	}
	n.mu.Lock()
	f := n.myShares[sum]
	n.mu.Unlock()
	if f == nil {
		fmt.Fprintf(c, "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
		return
	}
	data, err := f.Data()
	if err != nil {
		fmt.Fprintf(c, "HTTP/1.1 500 Internal Error\r\nContent-Length: 0\r\n\r\n")
		return
	}
	fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/binary\r\nContent-Length: %d\r\n\r\n", len(data))
	if fields[0] == "GET" {
		if _, err := c.Write(data); err == nil {
			met.bytesOut.Add(int64(len(data)))
		}
	}
}

// Download fetches the file with the given hex MD5 from addr. Durations
// are wall time (they bound real socket activity) and feed the
// transfer-latency histogram, never trace events.
func Download(tr p2p.Transport, addr, md5sum string) ([]byte, error) {
	return downloadTimed(tr, addr, md5sum, 30*time.Second)
}

// Fate classifies an OpenFT transfer error into a stable fate token:
// this package's sentinel outcomes first, then the shared transport
// classification. Tokens — not error strings — are what span streams
// carry, keeping the golden-gated bytes free of run-varying error text.
func Fate(err error) string {
	switch {
	case err == nil:
		return p2p.FateOK
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	default:
		return p2p.FateOf(err)
	}
}

// DownloadAttempts fetches like Download but survives a hostile path:
// per-attempt timeouts, capped exponential backoff with deterministic
// per-key jitter between retryable failures (wall clock only, never trace
// time), and immediate abort on terminal conditions. It also returns an
// attempt log: one p2p.Attempt per try, recording the fate token, the
// deterministic backoff slept after it (zero on the final try), and the
// measured wall duration. The study engine turns the log into per-attempt
// spans.
func DownloadAttempts(tr p2p.Transport, addr, md5sum string, policy p2p.RetryPolicy) ([]byte, []p2p.Attempt, error) {
	policy = policy.WithDefaults()
	key := addr + "/" + md5sum
	attempts := make([]p2p.Attempt, 0, policy.Attempts)
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		start := ioClock.Now()
		body, err := downloadTimed(tr, addr, md5sum, policy.AttemptTimeout)
		wall := simclock.Since(ioClock, start)
		if err == nil {
			attempts = append(attempts, p2p.Attempt{Fate: p2p.FateOK, Wall: wall})
			return body, attempts, nil
		}
		lastErr = err
		if !Retryable(err) {
			attempts = append(attempts, p2p.Attempt{Fate: Fate(err), Wall: wall})
			return nil, attempts, err
		}
		var backoff time.Duration
		if attempt < policy.Attempts {
			met.retries.Inc()
			backoff = policy.Delay(key, attempt)
			simclock.Sleep(ioClock, backoff)
		}
		attempts = append(attempts, p2p.Attempt{Fate: Fate(err), Backoff: backoff, Wall: wall})
	}
	return nil, attempts, lastErr
}

func downloadTimed(tr p2p.Transport, addr, md5sum string, timeout time.Duration) ([]byte, error) {
	start := ioClock.Now()
	body, err := download(tr, addr, md5sum, timeout)
	if err == nil {
		met.transferDur.ObserveDuration(simclock.Since(ioClock, start))
	}
	return body, err
}

func download(tr p2p.Transport, addr, md5sum string, timeout time.Duration) ([]byte, error) {
	c, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("openft: download dial %s: %w", addr, err)
	}
	defer c.Close()
	c.SetDeadline(ioDeadline(timeout))
	if _, err := fmt.Fprintf(c, "GET /md5/%s HTTP/1.1\r\nConnection: close\r\n\r\n", md5sum); err != nil {
		return nil, fmt.Errorf("openft: download write: %w", err)
	}
	br := bufpool.GetReader(c)
	defer bufpool.PutReader(br)
	status, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("openft: download status: %w", err)
	}
	fields := strings.Fields(status)
	if len(fields) < 2 {
		return nil, fmt.Errorf("openft: malformed status %q", strings.TrimSpace(status))
	}
	code, _ := strconv.Atoi(fields[1])
	var contentLength int64 = -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("openft: download headers: %w", err)
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if i := strings.IndexByte(h, ':'); i > 0 && strings.EqualFold(strings.TrimSpace(h[:i]), "Content-Length") {
			contentLength, _ = strconv.ParseInt(strings.TrimSpace(h[i+1:]), 10, 64)
		}
	}
	switch code {
	case 200:
	case 404:
		return nil, ErrNotFound
	default:
		return nil, fmt.Errorf("openft: download status %d", code)
	}
	body, err := readBody(br, contentLength)
	if err != nil {
		return nil, err
	}
	// The request addresses content by MD5, so the expected digest is the
	// request itself. A mismatched body was damaged in flight; surfacing
	// ErrCorrupt (retryable) keeps wire damage from silently relabeling a
	// specimen as clean content.
	if sum := md5.Sum(body); !strings.EqualFold(hex.EncodeToString(sum[:]), md5sum) {
		met.corrupt.Inc()
		return nil, ErrCorrupt
	}
	return body, nil
}

// ShareMD5 exposes the cached MD5 of a library file (hashing it if
// needed); the measurement client uses it to cross-check downloads.
func (n *Node) ShareMD5(f *p2p.SharedFile) (string, error) {
	return n.fileMD5(f)
}
