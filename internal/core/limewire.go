package core

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/guid"
	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/p2p"
)

// lwHit is one file entry of a query hit, with the hit descriptor that
// carried it.
type lwHit struct {
	qh  gnutella.QueryHit
	hit gnutella.Hit
}

func (h lwHit) push() bool { return h.qh.Flags&gnutella.QHDPush != 0 }

// limeWire is the instrumented LimeWire client on the simulated Gnutella
// universe.
type limeWire struct {
	u      *netsim.LimeWireNet
	client *gnutella.Node
	// pushLocks serializes push downloads per (servent, index), so
	// concurrent workers cannot collide on the push-callback registration.
	pushLocks *keyedLocks
}

// runLimeWire builds the Gnutella universe, joins it with the
// instrumented client, and runs the study loop over it.
func (s *Study) runLimeWire(tr *dataset.Trace) error {
	u, err := netsim.BuildLimeWire(*s.cfg.LimeWire)
	if err != nil {
		return err
	}
	defer u.Close()

	var sink floodSink[lwHit]
	clientIP := net.IPv4(156, 56, 1, 10) // the measurement host
	a := &limeWire{u: u, pushLocks: newKeyedLocks()}
	a.client = gnutella.NewNode(gnutella.Config{
		Role:        gnutella.Leaf,
		Transport:   u.Mem,
		ListenAddr:  fmt.Sprintf("%s:6346", clientIP),
		AdvertiseIP: clientIP, AdvertisePort: 6346,
		UserAgent: "LimeWire/4.10.9-instrumented", Vendor: "LIME",
		OnQueryHit: func(qh *gnutella.QueryHit, m *gnutella.Message) {
			hits := make([]lwHit, len(qh.Hits))
			for k, h := range qh.Hits {
				hits[k] = lwHit{qh: *qh, hit: h}
			}
			sink.add(p2p.FloodID(m.GUID), hits...)
		},
	})
	if err := a.client.Start(); err != nil {
		return err
	}
	defer a.client.Close()
	for _, addr := range u.UltrapeerAddrs() {
		if err := a.client.Connect(addr); err != nil {
			return fmt.Errorf("connecting instrumented client: %w", err)
		}
	}
	return runNetwork[lwHit](s, tr, netInfo{
		name: "limewire", network: dataset.LimeWire, stream: 0x11F0, mem: u.Mem,
		churned: "honest leaves", churn: s.cfg.ChurnPerDay,
	}, &sink, a)
}

func (a *limeWire) flood(term string) (p2p.FloodID, func() error) {
	g := guid.New()
	return p2p.FloodID(g), func() error { return a.client.QueryWith(g, term, "") }
}

func (a *limeWire) response(h lwHit) dataset.ResponseRecord {
	return dataset.ResponseRecord{
		Filename:    p2p.SanitizeFilename(h.hit.Name),
		Size:        int64(h.hit.Size),
		SourceIP:    h.qh.IP.String(),
		SourcePort:  h.qh.Port,
		SourceClass: ipaddr.Classify(h.qh.IP).String(),
		ServentID:   h.qh.ServentID.String(),
		ContentID:   h.hit.Extensions,
		Vendor:      h.qh.Vendor,
		PushFlagged: h.push(),
	}
}

func (a *limeWire) less(ha, hb lwHit) bool {
	if c := bytes.Compare(ha.qh.IP, hb.qh.IP); c != 0 {
		return c < 0
	}
	if ha.qh.Port != hb.qh.Port {
		return ha.qh.Port < hb.qh.Port
	}
	if ha.hit.Index != hb.hit.Index {
		return ha.hit.Index < hb.hit.Index
	}
	if ha.hit.Name != hb.hit.Name {
		return ha.hit.Name < hb.hit.Name
	}
	return ha.hit.Size < hb.hit.Size
}

// altKey is the HUGE urn:sha1 when the hit advertised one, else the
// advertised name+size. Push hits have none: their transfer rides the
// overlay, not the fault-injected direct path alternates exist to route
// around.
func (a *limeWire) altKey(h lwHit) string {
	switch {
	case h.push():
		return ""
	case h.hit.Extensions != "":
		return h.hit.Extensions
	default:
		return fmt.Sprintf("%s/%d", h.hit.Name, h.hit.Size)
	}
}

func (a *limeWire) cacheKey(h lwHit) string {
	return fmt.Sprintf("%s:%d/%d/%d", h.qh.IP, h.qh.Port, h.hit.Index, h.hit.Size)
}

func (a *limeWire) fetch(h lwHit, addr, key string, fx *netFaults) ([]byte, []p2p.Attempt, error) {
	switch {
	case h.push():
		defer a.pushLocks.lock(fmt.Sprintf("%s/%d", h.qh.ServentID, h.hit.Index))()
		return oneAttempt(gnutella.Fate, func() ([]byte, error) {
			return a.client.DownloadViaPush(h.qh.ServentID, h.hit.Index, h.hit.Name, 5*time.Second)
		})
	case fx != nil:
		return gnutella.DownloadAttempts(fx.inj.Transport(key), addr, h.hit.Index, h.hit.Name, fx.policy)
	default:
		return oneAttempt(gnutella.Fate, func() ([]byte, error) {
			return gnutella.Download(a.u.Mem, addr, h.hit.Index, h.hit.Name)
		})
	}
}

func (a *limeWire) retryable(err error) bool { return gnutella.Retryable(err) }

func (a *limeWire) churn(frac float64) (int, error) { return a.u.ChurnHonest(frac) }
