package openft

import (
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

// met holds the package's pre-resolved metric handles, mirroring the
// gnutella layer: per-command message counters indexed so the hot path is
// one map-free lookup plus an atomic add. OpenFT commands are a dense
// uint16 space starting at zero; anything past the known range shares an
// "other" set. Transfer metrics live on xfer.
var met = newMetrics()

type metrics struct {
	msg [knownCmdCount + 1]p2p.MessageCounters // indexed by command; last = other

	handshakeAcceptOK  *obs.Counter
	handshakeAcceptErr *obs.Counter
	handshakeDialOK    *obs.Counter
	handshakeDialErr   *obs.Counter

	sessionGauge *obs.Gauge
	childGauge   *obs.Gauge
}

// knownCmdCount covers CmdVersionReq (0) through CmdStatsResp (0x0C).
const knownCmdCount = int(CmdStatsResp) + 1

func newMetrics() *metrics {
	m := &metrics{
		handshakeAcceptOK:  obs.C("p2p_handshakes_total", "network", "openft", "side", "accept", "result", "ok"),
		handshakeAcceptErr: obs.C("p2p_handshakes_total", "network", "openft", "side", "accept", "result", "error"),
		handshakeDialOK:    obs.C("p2p_handshakes_total", "network", "openft", "side", "dial", "result", "ok"),
		handshakeDialErr:   obs.C("p2p_handshakes_total", "network", "openft", "side", "dial", "result", "error"),
		sessionGauge:       obs.G("p2p_connections", "network", "openft", "kind", "session"),
		childGauge:         obs.G("p2p_connections", "network", "openft", "kind", "child"),
	}
	for i := range m.msg {
		name := "other"
		if i < knownCmdCount {
			name = Command(i).String()
		}
		m.msg[i] = p2p.NewMessageCounters("openft", name)
	}
	return m
}
