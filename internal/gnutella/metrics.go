package gnutella

import (
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

// met holds the package's pre-resolved metric handles, registered once
// against the default registry. The message counters are indexed by the
// raw descriptor type byte so the per-message hot path is one array load
// plus one atomic add — no lookups, no allocations. Unknown descriptor
// types share a single "other" set. Transfer metrics live on xfer.
var met = newMetrics()

type metrics struct {
	msg [256]p2p.MessageCounters

	handshakeAcceptOK  *obs.Counter
	handshakeAcceptErr *obs.Counter
	handshakeDialOK    *obs.Counter
	handshakeDialErr   *obs.Counter

	peerGauge *obs.Gauge
	leafGauge *obs.Gauge
}

// knownTypes are the descriptor types given their own labelled series.
var knownTypes = []MsgType{MsgPing, MsgPong, MsgBye, MsgRouteTable, MsgPush, MsgQuery, MsgQueryHit}

func newMetrics() *metrics {
	m := &metrics{
		handshakeAcceptOK:  obs.C("p2p_handshakes_total", "network", "gnutella", "side", "accept", "result", "ok"),
		handshakeAcceptErr: obs.C("p2p_handshakes_total", "network", "gnutella", "side", "accept", "result", "error"),
		handshakeDialOK:    obs.C("p2p_handshakes_total", "network", "gnutella", "side", "dial", "result", "ok"),
		handshakeDialErr:   obs.C("p2p_handshakes_total", "network", "gnutella", "side", "dial", "result", "error"),
		peerGauge:          obs.G("p2p_connections", "network", "gnutella", "kind", "ultrapeer"),
		leafGauge:          obs.G("p2p_connections", "network", "gnutella", "kind", "leaf"),
	}
	other := p2p.NewMessageCounters("gnutella", "other")
	for i := range m.msg {
		m.msg[i] = other
	}
	for _, t := range knownTypes {
		m.msg[byte(t)] = p2p.NewMessageCounters("gnutella", t.String())
	}
	return m
}
