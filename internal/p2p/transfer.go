package p2p

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"p2pmalware/internal/bufpool"
	"p2pmalware/internal/obs"
)

// MaxTransferSize caps a single HTTP transfer body. A hostile peer
// advertising a multi-gigabyte Content-Length must not be able to make the
// crawler allocate it up front.
const MaxTransferSize = 64 << 20

// Transfer is one network's HTTP file-transfer client, the half of a
// download both protocol stacks share: the request and response-head
// exchange, a body reader capped at MaxTransferSize, the attempt loop, and
// the network's transfer metrics. A stack keeps its request URLs, its
// status and content checks, and the sentinel errors its fate and
// retryable functions classify.
type Transfer struct {
	network   string
	fate      func(error) string
	retryable func(error) bool

	bytesIn, bytesOut, clamped, corrupt, retries *obs.Counter
	duration                                     *obs.Histogram
}

// NewTransfer returns network's transfer client. fate classifies an
// attempt's error into a stable token, and retryable reports whether
// another attempt may succeed.
func NewTransfer(network string, fate func(error) string, retryable func(error) bool) *Transfer {
	return &Transfer{
		network: network, fate: fate, retryable: retryable,
		bytesIn:  obs.C("p2p_transfer_bytes_total", "network", network, "dir", "in"),
		bytesOut: obs.C("p2p_transfer_bytes_total", "network", network, "dir", "out"),
		clamped:  obs.C("p2p_transfer_clamped_total", "network", network),
		corrupt:  obs.C("p2p_transfer_corrupt_total", "network", network),
		retries:  obs.C("p2p_transfer_retries_total", "network", network),
		duration: obs.H("p2p_transfer_duration_us", obs.LatencyBuckets, "network", network),
	}
}

// Attempts runs get until it succeeds, fails with an error retryable
// refuses, or policy's attempts are spent. Each attempt gets
// policy.AttemptTimeout for its socket I/O; between attempts it sleeps the
// policy's backoff for key, on the wall clock, never on trace time. It
// returns the attempt log: one Attempt per try, with its fate token, the
// backoff slept after it (zero on the last) and its measured wall
// duration. A single-attempt policy makes an unretried transfer.
func (t *Transfer) Attempts(policy RetryPolicy, key string, get func(timeout time.Duration) ([]byte, error)) ([]byte, []Attempt, error) {
	policy = policy.WithDefaults()
	log := make([]Attempt, 0, policy.Attempts)
	for attempt := 1; ; attempt++ {
		start := time.Now()
		body, err := get(policy.AttemptTimeout)
		a := Attempt{Fate: t.fate(err), Wall: time.Since(start)}
		if err == nil || !t.retryable(err) || attempt >= policy.Attempts {
			return body, append(log, a), err
		}
		t.retries.Inc()
		a.Backoff = policy.Delay(key, attempt)
		time.Sleep(a.Backoff)
		log = append(log, a)
	}
}

// Dial connects to addr over tr and runs Exchange on the connection.
func (t *Transfer) Dial(tr Transport, addr string, timeout time.Duration, get func(c net.Conn, br *bufio.Reader) ([]byte, error)) ([]byte, error) {
	c, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%s: download dial %s: %w", t.network, addr, err)
	}
	defer c.Close()
	return t.Exchange(c, timeout, get)
}

// Exchange runs get on an established connection under one socket
// deadline, reading through a pooled buffer. The wall time of a successful
// exchange, from the request write to the body read, feeds the transfer
// latency histogram; the dial and a push's wait for its callback are not
// part of it.
func (t *Transfer) Exchange(c net.Conn, timeout time.Duration, get func(c net.Conn, br *bufio.Reader) ([]byte, error)) ([]byte, error) {
	c.SetDeadline(time.Now().Add(timeout))
	br := bufpool.GetReader(c)
	defer bufpool.PutReader(br)
	start := time.Now()
	body, err := get(c, br)
	if err == nil {
		t.duration.ObserveDuration(time.Since(start))
	}
	return body, err
}

// Head is an HTTP response's status and headers.
type Head struct {
	Code int
	// Length is the Content-Length, -1 when the response has none.
	Length int64
	// Header holds the other headers, keyed by lower-case name.
	Header map[string]string
}

// Get writes request to c and reads the response head through br. A
// Content-Length that is not a non-negative decimal integer fails the
// exchange: a length the parser cannot read must never pass for an empty
// body, or for one that runs to EOF.
func (t *Transfer) Get(c net.Conn, br *bufio.Reader, request string) (Head, error) {
	if _, err := io.WriteString(c, request); err != nil {
		return Head{}, fmt.Errorf("%s: download write: %w", t.network, err)
	}
	status, err := br.ReadString('\n')
	if err != nil {
		return Head{}, fmt.Errorf("%s: download status: %w", t.network, err)
	}
	fields := strings.Fields(status)
	if len(fields) < 2 {
		return Head{}, fmt.Errorf("%s: malformed status %q", t.network, strings.TrimSpace(status))
	}
	h := Head{Length: -1, Header: make(map[string]string)}
	h.Code, _ = strconv.Atoi(fields[1])
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return Head{}, fmt.Errorf("%s: download headers: %w", t.network, err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			return h, nil
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || name == "" {
			continue
		}
		name, value = strings.ToLower(strings.TrimSpace(name)), strings.TrimSpace(value)
		if name != "content-length" {
			h.Header[name] = value
			continue
		}
		n, err := strconv.ParseUint(value, 10, 63)
		if err != nil {
			return Head{}, fmt.Errorf("%s: malformed Content-Length", t.network)
		}
		h.Length = int64(n)
	}
}

// ReadBody reads a response body whose length the peer advertised,
// clamped against MaxTransferSize before any allocation; peerLen < 0 (no
// Content-Length header) reads to EOF under the same cap through a pooled
// staging buffer. The body is a bufpool slab, and its one user may hand it
// back with bufpool.PutSlab once done with it; a caller that keeps the
// body leaves it to the garbage collector.
func (t *Transfer) ReadBody(br *bufio.Reader, peerLen int64) ([]byte, error) {
	if peerLen > MaxTransferSize {
		t.clamped.Inc()
		return nil, fmt.Errorf("%s: content length %d exceeds transfer cap %d", t.network, peerLen, int64(MaxTransferSize))
	}
	if peerLen < 0 {
		stage := bufpool.GetBuffer()
		defer bufpool.PutBuffer(stage)
		if _, err := io.Copy(stage, io.LimitReader(br, MaxTransferSize)); err != nil {
			return nil, fmt.Errorf("%s: download body: %w", t.network, err)
		}
		body := bufpool.GetSlab(stage.Len())
		copy(body, stage.Bytes())
		t.bytesIn.Add(int64(len(body)))
		return body, nil
	}
	body := bufpool.GetSlab(int(peerLen))
	if _, err := io.ReadFull(br, body); err != nil {
		bufpool.PutSlab(body)
		return nil, fmt.Errorf("%s: download body: %w", t.network, err)
	}
	t.bytesIn.Add(peerLen)
	return body, nil
}

// Corrupt counts a body that failed its content check, hands the body
// back to the pool, and returns err, the stack's sentinel for it.
func (t *Transfer) Corrupt(body []byte, err error) error {
	t.corrupt.Inc()
	bufpool.PutSlab(body)
	return err
}

// WriteBody serves body on w, counting the bytes the connection accepted.
// A requester that hangs up part-way ends the upload; the server has
// nothing left to do but close the connection, so no error is returned.
func (t *Transfer) WriteBody(w io.Writer, body []byte) {
	n, _ := w.Write(body)
	t.bytesOut.Add(int64(n))
}
