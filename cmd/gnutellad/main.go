// Command gnutellad runs a standalone Gnutella 0.6 servent on real TCP:
// an ultrapeer or leaf that shares the files of a local directory, joins
// an overlay, and optionally issues a query. It demonstrates that the
// protocol stack used by the simulation interoperates over real sockets.
//
// Usage:
//
//	gnutellad -listen 127.0.0.1:6346 -ultrapeer
//	gnutellad -listen 127.0.0.1:6347 -connect 127.0.0.1:6346 -share ./files
//	gnutellad -listen 127.0.0.1:6348 -connect 127.0.0.1:6346 -query "linux iso" -query-wait 3s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gnutellad: ")
	var (
		listen    = flag.String("listen", "127.0.0.1:6346", "listen address")
		ultrapeer = flag.Bool("ultrapeer", false, "run as ultrapeer")
		connect   = flag.String("connect", "", "comma-separated peer addresses to join")
		share     = flag.String("share", "", "directory whose files are shared")
		query     = flag.String("query", "", "issue this query after joining")
		queryWait = flag.Duration("query-wait", 3*time.Second, "how long to collect hits")
		oneshot   = flag.Bool("oneshot", false, "exit after the query completes")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /varz, and /debug/pprof on this address")
		debug       = flag.Bool("debug", false, "log protocol-level debug detail")
	)
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := obs.StartServer(*metricsAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics on http://%s/metrics", srv.Addr())
	}

	lib := p2p.NewLibrary()
	if *share != "" {
		n, err := shareDir(lib, *share)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("sharing %d files from %s", n, *share)
	}

	host, _, err := net.SplitHostPort(*listen)
	if err != nil {
		log.Fatalf("bad -listen: %v", err)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		ip = net.IPv4(127, 0, 0, 1)
	}

	role := gnutella.Leaf
	if *ultrapeer {
		role = gnutella.Ultrapeer
	}
	var logf func(format string, args ...any)
	if *debug {
		logf = func(format string, args ...any) { log.Printf("[debug] "+format, args...) }
	}
	node := gnutella.NewNode(gnutella.Config{
		Role: role, Transport: p2p.TCP{},
		ListenAddr: *listen, AdvertiseIP: ip,
		UserAgent: "gnutellad/1.0", Library: lib,
		Logf: logf,
		OnQueryHit: func(qh *gnutella.QueryHit, m *gnutella.Message) {
			for _, h := range qh.Hits {
				fmt.Printf("hit: %q size=%d from %s:%d (%s)\n",
					h.Name, h.Size, qh.IP, qh.Port, qh.Vendor)
			}
		},
	})
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	log.Printf("%s listening on %s", role, node.Addr())

	if *connect != "" {
		for _, addr := range strings.Split(*connect, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if err := node.Connect(addr); err != nil {
				log.Fatalf("connect %s: %v", addr, err)
			}
			log.Printf("connected to %s", addr)
		}
	}

	if *query != "" {
		time.Sleep(200 * time.Millisecond) // let QRP tables propagate
		if _, err := node.Query(*query, ""); err != nil {
			log.Fatal(err)
		}
		log.Printf("query %q issued, collecting hits for %v", *query, *queryWait)
		time.Sleep(*queryWait)
		if *oneshot {
			return
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("shutting down")
}

func shareDir(lib *p2p.Library, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("share dir: %w", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("share %s: %w", path, err)
		}
		if _, err := lib.Add(p2p.StaticFile(e.Name(), data)); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
