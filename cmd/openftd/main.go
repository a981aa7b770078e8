// Command openftd runs a standalone OpenFT node on real TCP: a SEARCH
// node, or a USER node that shares a directory, registers as a child of a
// SEARCH parent, and optionally issues a search.
//
// Usage:
//
//	openftd -listen 127.0.0.1:1215 -class search
//	openftd -listen 127.0.0.1:1216 -parent 127.0.0.1:1215 -share ./files
//	openftd -listen 127.0.0.1:1217 -parent 127.0.0.1:1215 -search "linux iso" -oneshot
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"p2pmalware/internal/obs"
	"p2pmalware/internal/openft"
	"p2pmalware/internal/p2p"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("openftd: ")
	var (
		listen     = flag.String("listen", "127.0.0.1:1216", "listen address")
		class      = flag.String("class", "user", "node class: user, search, index")
		parent     = flag.String("parent", "", "SEARCH parent to register with (user nodes)")
		share      = flag.String("share", "", "directory whose files are shared")
		search     = flag.String("search", "", "issue this search after joining")
		searchWait = flag.Duration("search-wait", 3*time.Second, "how long to collect results")
		oneshot    = flag.Bool("oneshot", false, "exit after the search completes")

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

	var cls openft.Class
	switch *class {
	case "user":
		cls = openft.ClassUser
	case "search":
		cls = openft.ClassSearch
	case "index":
		cls = openft.ClassSearch | openft.ClassIndex
	default:
		log.Fatalf("unknown -class %q", *class)
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

	var logf func(format string, args ...any)
	if *debug {
		logf = func(format string, args ...any) { log.Printf("[debug] "+format, args...) }
	}
	node := openft.NewNode(openft.Config{
		Class: cls, Transport: p2p.TCP{},
		ListenAddr: *listen, AdvertiseIP: ip,
		Alias: "openftd", Library: lib,
		Logf: logf,
		OnSearchResult: func(r openft.SearchResp) {
			fmt.Printf("result: %q size=%d md5=%s from %s:%d\n",
				r.Path, r.Size, r.MD5, r.IP, r.Port)
		},
	})
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	log.Printf("%s node listening on %s", cls, node.Addr())

	if *parent != "" {
		if err := node.BecomeChildOf(*parent); err != nil {
			// Non-sharing searchers connect without registering as a
			// child.
			if err2 := node.Connect(*parent); err2 != nil {
				log.Fatalf("parent %s: %v / %v", *parent, err, err2)
			}
			log.Printf("connected to %s (not a child: %v)", *parent, err)
		} else {
			log.Printf("registered as child of %s", *parent)
		}
	}

	if *search != "" {
		time.Sleep(100 * time.Millisecond)
		if _, err := node.Search(*search); err != nil {
			log.Fatal(err)
		}
		log.Printf("search %q issued, collecting for %v", *search, *searchWait)
		time.Sleep(*searchWait)
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
