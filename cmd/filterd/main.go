// Command filterd serves the paper's size-based malware filter as a
// standalone high-QPS daemon — the TorrentGuard-style deployment of the
// result that exact-size matching blocks >99% of malware responses: one
// shared block list served to every client instead of a per-client
// table.
//
// The daemon keeps the block list in versioned immutable snapshots
// (internal/filtersvc) swapped atomically under live traffic, so checks
// never block on updates. Two check surfaces run side by side: an HTTP
// API (per-request checks, streaming updates, status) and a
// newline-delimited line protocol for bulk checks. A finished study can
// stream its trained block list straight in via `p2pstudy -filterd`.
//
// Usage:
//
//	filterd -addr :8940 [-line-addr :8941] [-metrics-addr :8942]
//	        [-tolerance 0] [-blocklist sizes.txt]
//
//	curl 'http://localhost:8940/check?size=184342'
//	curl -d '{"add":[184342,232960]}' http://localhost:8940/update
//	printf '184342\n90333 nd\n' | nc localhost 8941
//
// The -blocklist file preloads sizes at startup: one decimal size per
// line, blank lines and #-comments ignored.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2pmalware/internal/filtersvc"
	"p2pmalware/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("filterd: ")
	var (
		addr        = flag.String("addr", ":8940", "HTTP check/update API address")
		lineAddr    = flag.String("line-addr", "", "optional line-protocol (bulk check) address")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /varz, and /debug/pprof on this address")
		tolerance   = flag.Int64("tolerance", 0, "size-match tolerance in bytes (0 = exact)")
		blocklist   = flag.String("blocklist", "", "optional block-list file to preload: one decimal size per line, # comments")
	)
	flag.Parse()
	if *tolerance < 0 {
		log.Fatal("-tolerance must be non-negative")
	}

	svc := filtersvc.New(nil)
	if *blocklist != "" {
		sizes, err := loadBlocklist(*blocklist)
		if err != nil {
			log.Fatal(err)
		}
		v := svc.Replace(sizes, *tolerance)
		log.Printf("preloaded %d sizes from %s (snapshot version %d)", len(sizes), *blocklist, v)
	} else if *tolerance != 0 {
		svc.SetTolerance(*tolerance)
	}

	if *metricsAddr != "" {
		msrv, err := obs.StartServer(*metricsAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer msrv.Close()
		log.Printf("metrics on http://%s/metrics", msrv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hsrv := newHTTPServer(svc.Handler())
	go hsrv.Serve(ln)
	log.Printf("check API on http://%s/check", ln.Addr())

	var lsrv *filtersvc.LineServer
	if *lineAddr != "" {
		lln, err := net.Listen("tcp", *lineAddr)
		if err != nil {
			log.Fatal(err)
		}
		lsrv = filtersvc.ServeLine(lln, svc)
		log.Printf("line protocol on %s", lsrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if lsrv != nil {
		lsrv.Close()
	}
	hsrv.Close()
	st := svc.Stats()
	fmt.Printf("served %d checks (%d blocked, %d allowed) over %d snapshot versions\n",
		st.Checks, st.Blocked, st.Allowed, st.Version)
}

// Timeouts of the HTTP API. Without them a client that never finishes its
// request headers, or stalls a body or a response, holds a goroutine and a
// socket forever. Read and write allow a full 4 MiB /update on a slow
// link; the idle timeout is far above the sub-second update cadence of a
// streaming client, so its keep-alive connection is reused, not redialled.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the HTTP API server around h with every timeout
// set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// loadBlocklist reads one decimal size per line; blank lines and lines
// starting with '#' are skipped.
func loadBlocklist(path string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sizes []int64
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%s:%d: bad size %q", path, lineNo, line)
		}
		sizes = append(sizes, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sizes, nil
}
