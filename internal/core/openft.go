package core

import (
	"bytes"
	"fmt"
	"net"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/openft"
	"p2pmalware/internal/p2p"
)

// openFT is the instrumented giFT/OpenFT client on the simulated OpenFT
// universe.
type openFT struct {
	u      *netsim.OpenFTNet
	client *openft.Node
}

// runOpenFT builds the OpenFT universe, joins it with the instrumented
// client, and runs the study loop over it.
func (s *Study) runOpenFT(tr *dataset.Trace) error {
	u, err := netsim.BuildOpenFT(*s.cfg.OpenFT)
	if err != nil {
		return err
	}
	defer u.Close()

	var sink floodSink[openft.SearchResp]
	clientIP := net.IPv4(156, 56, 1, 11)
	a := &openFT{u: u}
	a.client = openft.NewNode(openft.Config{
		Class:       openft.ClassUser,
		Transport:   u.Mem,
		ListenAddr:  fmt.Sprintf("%s:1216", clientIP),
		AdvertiseIP: clientIP, AdvertisePort: 1216,
		Alias: "giFT-instrumented",
		OnSearchResult: func(r openft.SearchResp) {
			sink.add(openft.SearchFloodID(r.ID), r)
		},
	})
	if err := a.client.Start(); err != nil {
		return err
	}
	defer a.client.Close()
	for _, addr := range u.SearchAddrs() {
		if err := a.client.Connect(addr); err != nil {
			return fmt.Errorf("connecting instrumented client: %w", err)
		}
	}
	// Users churn only under a fault plan: StudyConfig's ChurnPerDay keeps
	// its historical LimeWire-leaves meaning, so clean-run traces are
	// unchanged.
	return runNetwork[openft.SearchResp](s, tr, netInfo{
		name: "openft", network: dataset.OpenFT, stream: 0x0F70, mem: u.Mem,
		churned: "users",
	}, &sink, a)
}

func (a *openFT) flood(term string) (p2p.FloodID, func() error) {
	id := openft.NewSearchID()
	return openft.SearchFloodID(id), func() error { return a.client.SearchWith(id, term) }
}

func (a *openFT) response(r openft.SearchResp) dataset.ResponseRecord {
	return dataset.ResponseRecord{
		Filename:    p2p.SanitizeFilename(r.Path),
		Size:        int64(r.Size),
		SourceIP:    r.IP.String(),
		SourcePort:  r.Port,
		SourceClass: ipaddr.Classify(r.IP).String(),
		ContentID:   r.MD5,
	}
}

func (a *openFT) less(ra, rb openft.SearchResp) bool {
	if c := bytes.Compare(ra.IP, rb.IP); c != 0 {
		return c < 0
	}
	if ra.Port != rb.Port {
		return ra.Port < rb.Port
	}
	if ra.MD5 != rb.MD5 {
		return ra.MD5 < rb.MD5
	}
	return ra.Path < rb.Path
}

// altKey is the result's MD5: OpenFT addresses content by hash.
func (a *openFT) altKey(r openft.SearchResp) string { return r.MD5 }

func (a *openFT) cacheKey(r openft.SearchResp) string { return "md5/" + r.MD5 + "@" + r.IP.String() }

func (a *openFT) fetch(r openft.SearchResp, addr, key string, fx *netFaults) ([]byte, []p2p.Attempt, error) {
	if fx != nil {
		return openft.DownloadAttempts(fx.inj.Transport(key), addr, r.MD5, fx.policy)
	}
	return oneAttempt(openft.Fate, func() ([]byte, error) { return openft.Download(a.u.Mem, addr, r.MD5) })
}

func (a *openFT) retryable(err error) bool { return openft.Retryable(err) }

func (a *openFT) churn(frac float64) (int, error) { return a.u.ChurnUsers(frac) }
