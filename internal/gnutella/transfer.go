package gnutella

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"

	"p2pmalware/internal/bufpool"
	"p2pmalware/internal/guid"
	"p2pmalware/internal/p2p"
)

// Gnutella file transfer is plain HTTP on the servent's port:
//
//	GET /get/<index>/<name> HTTP/1.1          (classic)
//	GET /uri-res/N2R?urn:sha1:<base32> HTTP/1.1  (HUGE)
//
// Firewalled servents refuse inbound transfers; requesters instead route a
// Push descriptor through the overlay and the firewalled servent calls
// back with "GIV <index>:<servent-guid-hex>/<name>\n\n", after which the
// requester issues its GET on that same connection.

// Transfer errors.
var (
	ErrNotFound   = errors.New("gnutella: file not found")
	ErrFirewalled = errors.New("gnutella: servent is firewalled, use push")
	ErrPushWait   = errors.New("gnutella: push callback never arrived")
	// ErrCorrupt means the body's SHA1 did not match the servent's
	// advertised X-Gnutella-Content-URN — bytes were damaged in flight.
	ErrCorrupt = errors.New("gnutella: content hash mismatch")
)

// Retryable reports whether a transfer error is worth another attempt.
// Not-found and firewalled are properties of the remote servent, not of
// the attempt; everything else (dial refusal, reset, truncation, timeout,
// corruption) can succeed on retry.
func Retryable(err error) bool {
	return !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrFirewalled)
}

// xfer is the package's transfer client (see p2p.Transfer).
var xfer = p2p.NewTransfer("gnutella", Fate, Retryable)

func (n *Node) serveHTTP(c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufpool.GetReader(c)
	defer bufpool.PutReader(br)
	n.serveRequest(c, br, n.cfg.Firewalled)
}

// serveRequest handles one HTTP file request, with byte-range support per
// the Gnutella download-resume convention. refuse models a firewalled
// servent rejecting inbound transfers (push callbacks pass refuse=false:
// those connections are outbound).
func (n *Node) serveRequest(c net.Conn, br *bufio.Reader, refuse bool) {
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 3 || (fields[0] != "GET" && fields[0] != "HEAD") {
		writeHTTPError(c, 400, "Bad Request")
		return
	}
	var rangeHdr string
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if i := strings.IndexByte(h, ':'); i > 0 && strings.EqualFold(strings.TrimSpace(h[:i]), "Range") {
			rangeHdr = strings.TrimSpace(h[i+1:])
		}
	}
	if refuse {
		// A NAT'd servent would never see this connection at all; a
		// servent that knows it is firewalled refuses politely.
		writeHTTPError(c, 403, "Firewalled")
		return
	}
	f := n.resolvePath(fields[1])
	if f == nil {
		writeHTTPError(c, 404, "Not Found")
		return
	}
	body, err := f.Open()
	if err != nil {
		writeHTTPError(c, 500, "Internal Error")
		return
	}
	defer body.Release()
	data := body.Bytes
	if rangeHdr != "" {
		lo, hi, ok := parseByteRange(rangeHdr, int64(len(data)))
		if !ok {
			fmt.Fprintf(c, "HTTP/1.1 416 Requested Range Not Satisfiable\r\nContent-Length: 0\r\n\r\n")
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 206 Partial Content\r\nServer: %s\r\nContent-Type: application/binary\r\nContent-Range: bytes %d-%d/%d\r\nContent-Length: %d\r\n\r\n",
			n.cfg.UserAgent, lo, hi, len(data), hi-lo+1)
		if fields[0] == "GET" {
			xfer.WriteBody(c, data[lo:hi+1])
		}
		return
	}
	// Advertise the content URN when we know it (HUGE spec), so the
	// requester can verify the body end to end. Lazy files with no
	// precomputed hash simply omit the header.
	urnHdr := ""
	if f.SHA1 != "" {
		urnHdr = "X-Gnutella-Content-URN: " + f.SHA1 + "\r\n"
	}
	fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nServer: %s\r\nContent-Type: application/binary\r\n%sContent-Length: %d\r\n\r\n",
		n.cfg.UserAgent, urnHdr, len(data))
	if fields[0] == "GET" {
		xfer.WriteBody(c, data)
	}
}

// parseByteRange parses a single-range "bytes=lo-hi" header against a file
// of the given size, returning the inclusive byte bounds.
func parseByteRange(h string, size int64) (lo, hi int64, ok bool) {
	spec, found := strings.CutPrefix(strings.ToLower(strings.ReplaceAll(h, " ", "")), "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	dash := strings.IndexByte(spec, '-')
	if dash < 0 {
		return 0, 0, false
	}
	loStr, hiStr := spec[:dash], spec[dash+1:]
	if loStr == "" {
		// Suffix range: last N bytes.
		nStr := hiStr
		var nBytes int64
		if _, err := fmt.Sscanf(nStr, "%d", &nBytes); err != nil || nBytes <= 0 {
			return 0, 0, false
		}
		if nBytes > size {
			nBytes = size
		}
		return size - nBytes, size - 1, size > 0
	}
	if _, err := fmt.Sscanf(loStr, "%d", &lo); err != nil || lo < 0 {
		return 0, 0, false
	}
	hi = size - 1
	if hiStr != "" {
		if _, err := fmt.Sscanf(hiStr, "%d", &hi); err != nil {
			return 0, 0, false
		}
	}
	if hi >= size {
		hi = size - 1
	}
	if lo > hi || lo >= size {
		return 0, 0, false
	}
	return lo, hi, true
}

// resolvePath maps an HTTP request path to a shared file.
func (n *Node) resolvePath(path string) *p2p.SharedFile {
	switch {
	case strings.HasPrefix(path, "/get/"):
		rest := strings.TrimPrefix(path, "/get/")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return nil
		}
		idx, err := strconv.ParseUint(rest[:slash], 10, 32)
		if err != nil {
			return nil
		}
		// Lookup is by index alone; the name in the URL is not required to
		// match the library name. Real servents resolved by index, and
		// query-echo malware depends on serving its payload under whatever
		// query-derived filename it advertised.
		return n.cfg.Library.Get(uint32(idx))
	case strings.HasPrefix(path, "/uri-res/N2R?"):
		return n.cfg.Library.FindBySHA1(strings.TrimPrefix(path, "/uri-res/N2R?"))
	default:
		return nil
	}
}

func writeHTTPError(c net.Conn, code int, text string) {
	fmt.Fprintf(c, "HTTP/1.1 %d %s\r\nContent-Length: 0\r\n\r\n", code, text)
}

// Download fetches /get/<index>/<name> from addr over the transport and
// returns the body.
func Download(tr p2p.Transport, addr string, index uint32, name string) ([]byte, error) {
	body, _, err := DownloadAttempts(tr, addr, index, name, p2p.RetryPolicy{Attempts: 1})
	return body, err
}

// Fate classifies a gnutella transfer error into a stable fate token:
// this package's sentinel outcomes first, then the shared transport
// classification. Tokens — not error strings — are what span streams
// carry, keeping the golden-gated bytes free of run-varying error text.
func Fate(err error) string {
	switch {
	case err == nil:
		return p2p.FateOK
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrFirewalled):
		return "firewalled"
	case errors.Is(err, ErrPushWait):
		return "push_wait"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	default:
		return p2p.FateOf(err)
	}
}

// DownloadAttempts fetches like Download but survives a hostile path:
// each attempt runs under policy.AttemptTimeout, retryable failures back
// off (see p2p.Transfer.Attempts), and terminal conditions (not found,
// firewalled) abort immediately. It also returns the attempt log, which
// the study engine turns into per-attempt spans.
func DownloadAttempts(tr p2p.Transport, addr string, index uint32, name string, policy p2p.RetryPolicy) ([]byte, []p2p.Attempt, error) {
	return xfer.Attempts(policy, fmt.Sprintf("%s/%d", addr, index), func(timeout time.Duration) ([]byte, error) {
		return xfer.Dial(tr, addr, timeout, func(c net.Conn, br *bufio.Reader) ([]byte, error) {
			return httpGet(c, br, index, name, "")
		})
	})
}

// DownloadRange fetches length bytes starting at offset (length < 0 means
// "to end of file") using an HTTP Range request — the resume mechanism
// Gnutella servents used for swarmed/interrupted downloads.
func DownloadRange(tr p2p.Transport, addr string, index uint32, name string, offset, length int64) ([]byte, error) {
	rangeSpec := fmt.Sprintf("bytes=%d-", offset)
	if length >= 0 {
		rangeSpec = fmt.Sprintf("bytes=%d-%d", offset, offset+length-1)
	}
	return xfer.Dial(tr, addr, 30*time.Second, func(c net.Conn, br *bufio.Reader) ([]byte, error) {
		return httpGet(c, br, index, name, rangeSpec)
	})
}

// httpGet issues the GET for a file on an established connection — for
// the byte range rangeSpec names, or the whole file when it is empty — and
// reads the response body.
func httpGet(c net.Conn, br *bufio.Reader, index uint32, name, rangeSpec string) ([]byte, error) {
	want, rangeHdr := 200, ""
	if rangeSpec != "" {
		want, rangeHdr = 206, "Range: "+rangeSpec+"\r\n"
	}
	h, err := xfer.Get(c, br, fmt.Sprintf("GET /get/%d/%s HTTP/1.1\r\nUser-Agent: SimShare/1.0\r\n%sConnection: close\r\n\r\n",
		index, url.PathEscape(name), rangeHdr))
	if err != nil {
		return nil, err
	}
	switch h.Code {
	case want:
	case 403:
		return nil, ErrFirewalled
	case 404:
		return nil, ErrNotFound
	case 416:
		return nil, errors.New("gnutella: range not satisfiable")
	default:
		return nil, fmt.Errorf("gnutella: download status %d", h.Code)
	}
	body, err := xfer.ReadBody(br, h.Length)
	if err != nil {
		return nil, err
	}
	// End-to-end integrity: when the servent advertised the content URN,
	// a body that hashes differently was damaged in flight. Surfacing
	// ErrCorrupt (retryable) instead of the bad bytes keeps wire damage
	// from silently relabeling a specimen as clean content. The URN names
	// the whole file, so a range body, which HUGE servents also label
	// with it, is not checked against it.
	if urn := h.Header["x-gnutella-content-urn"]; rangeSpec == "" && urn != "" && p2p.URNSHA1(body) != urn {
		return nil, xfer.Corrupt(body, ErrCorrupt)
	}
	return body, nil
}

// pushKey identifies a pending push-download.
func pushKey(index uint32, sid guid.GUID) string {
	return fmt.Sprintf("%d:%s", index, sid)
}

// DownloadViaPush routes a Push through the overlay and waits for the
// firewalled servent's GIV callback on this node's listener, then performs
// the GET on the called-back connection.
func (n *Node) DownloadViaPush(serventID guid.GUID, index uint32, name string, timeout time.Duration) ([]byte, error) {
	body, _, err := n.PushAttempts(serventID, index, name, timeout)
	return body, err
}

// PushAttempts is DownloadViaPush with its attempt log. A push is never
// retried: its one attempt waits up to timeout for the callback.
func (n *Node) PushAttempts(serventID guid.GUID, index uint32, name string, timeout time.Duration) ([]byte, []p2p.Attempt, error) {
	return xfer.Attempts(p2p.RetryPolicy{Attempts: 1}, "", func(time.Duration) ([]byte, error) {
		key := pushKey(index, serventID)
		ch := make(chan net.Conn, 1)
		n.pushMu.Lock()
		n.pushWaiters[key] = ch
		n.pushMu.Unlock()
		defer func() {
			n.pushMu.Lock()
			delete(n.pushWaiters, key)
			n.pushMu.Unlock()
		}()

		host, port := splitHostPort(n.Addr())
		ip := net.ParseIP(host)
		if n.cfg.AdvertiseIP != nil {
			ip = n.cfg.AdvertiseIP
			port = n.cfg.AdvertisePort
		}
		if err := n.SendPush(serventID, index, ip, port); err != nil {
			return nil, err
		}
		select {
		case c := <-ch:
			defer c.Close()
			return xfer.Exchange(c, 30*time.Second, func(c net.Conn, br *bufio.Reader) ([]byte, error) {
				return httpGet(c, br, index, name, "")
			})
		case <-time.After(timeout):
			return nil, ErrPushWait
		}
	})
}

// handleGIV accepts a firewalled servent's callback connection and hands
// it to the waiting downloader.
func (n *Node) handleGIV(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		c.Close()
		return
	}
	// "GIV <index>:<hexguid>/<name>\n\n"
	line = strings.TrimSpace(strings.TrimPrefix(line, "GIV "))
	colon := strings.IndexByte(line, ':')
	slash := strings.IndexByte(line, '/')
	if colon < 0 || slash < colon {
		c.Close()
		return
	}
	idx, err := strconv.ParseUint(line[:colon], 10, 32)
	if err != nil {
		c.Close()
		return
	}
	sid, err := guid.FromString(line[colon+1 : slash])
	if err != nil {
		c.Close()
		return
	}
	// Swallow the blank line that follows.
	br.ReadString('\n')
	c.SetReadDeadline(time.Time{})

	key := pushKey(uint32(idx), sid)
	n.pushMu.Lock()
	ch := n.pushWaiters[key]
	n.pushMu.Unlock()
	if ch == nil {
		c.Close()
		return
	}
	select {
	case ch <- &sniffConn{Conn: c, br: br}:
	default:
		c.Close()
	}
}

// performPush is the firewalled servent's side: call the requester back,
// announce GIV, then serve its GET on the same connection.
func (n *Node) performPush(p Push) {
	f := n.cfg.Library.Get(p.Index)
	if f == nil {
		return
	}
	addr := fmt.Sprintf("%s:%d", p.IP, p.Port)
	c, err := n.cfg.Transport.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(c, "GIV %d:%s/%s\n\n", p.Index, n.serventID, f.Name); err != nil {
		return
	}
	br := bufio.NewReader(c)
	// Serve the GET even though we are "firewalled": push connections are
	// outbound, so the refusal logic must not apply here.
	n.serveRequest(c, br, false)
}
