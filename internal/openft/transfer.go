package openft

import (
	"bufio"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"p2pmalware/internal/p2p"
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

// xfer is the package's transfer client (see p2p.Transfer).
var xfer = p2p.NewTransfer("openft", Fate, Retryable)

func (n *Node) serveHTTP(c net.Conn, br *bufio.Reader) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
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
	body, err := f.Open()
	if err != nil {
		fmt.Fprintf(c, "HTTP/1.1 500 Internal Error\r\nContent-Length: 0\r\n\r\n")
		return
	}
	defer body.Release()
	fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/binary\r\nContent-Length: %d\r\n\r\n", len(body.Bytes))
	if fields[0] == "GET" {
		xfer.WriteBody(c, body.Bytes)
	}
}

// Download fetches the file with the given hex MD5 from addr.
func Download(tr p2p.Transport, addr, md5sum string) ([]byte, error) {
	body, _, err := DownloadAttempts(tr, addr, md5sum, p2p.RetryPolicy{Attempts: 1})
	return body, err
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
// each attempt runs under policy.AttemptTimeout, retryable failures back
// off (see p2p.Transfer.Attempts), and a terminal condition (not found)
// aborts immediately. It also returns the attempt log, which the study
// engine turns into per-attempt spans.
func DownloadAttempts(tr p2p.Transport, addr, md5sum string, policy p2p.RetryPolicy) ([]byte, []p2p.Attempt, error) {
	return xfer.Attempts(policy, addr+"/"+md5sum, func(timeout time.Duration) ([]byte, error) {
		return download(tr, addr, md5sum, timeout)
	})
}

func download(tr p2p.Transport, addr, md5sum string, timeout time.Duration) ([]byte, error) {
	return xfer.Dial(tr, addr, timeout, func(c net.Conn, br *bufio.Reader) ([]byte, error) {
		h, err := xfer.Get(c, br, fmt.Sprintf("GET /md5/%s HTTP/1.1\r\nConnection: close\r\n\r\n", md5sum))
		if err != nil {
			return nil, err
		}
		switch h.Code {
		case 200:
		case 404:
			return nil, ErrNotFound
		default:
			return nil, fmt.Errorf("openft: download status %d", h.Code)
		}
		body, err := xfer.ReadBody(br, h.Length)
		if err != nil {
			return nil, err
		}
		// The request addresses content by MD5, so the expected digest is
		// the request itself. A mismatched body was damaged in flight;
		// surfacing ErrCorrupt (retryable) keeps wire damage from silently
		// relabeling a specimen as clean content.
		if sum := md5.Sum(body); !strings.EqualFold(hex.EncodeToString(sum[:]), md5sum) {
			return nil, xfer.Corrupt(body, ErrCorrupt)
		}
		return body, nil
	})
}

// ShareMD5 exposes the cached MD5 of a library file (hashing it if
// needed); the measurement client uses it to cross-check downloads.
func (n *Node) ShareMD5(f *p2p.SharedFile) (string, error) {
	return n.fileMD5(f)
}
