package gnutella

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"p2pmalware/internal/guid"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/p2p"
)

// Role is a servent's position in the two-tier Gnutella topology.
type Role int

const (
	// Leaf servents connect only to ultrapeers and never forward.
	Leaf Role = iota
	// Ultrapeer servents form the flooding mesh and shield leaves via QRP.
	Ultrapeer
)

// String returns the role name.
func (r Role) String() string {
	if r == Ultrapeer {
		return "ultrapeer"
	}
	return "leaf"
}

// Config configures a Node.
type Config struct {
	// Role selects leaf or ultrapeer behaviour.
	Role Role
	// Transport is how the node reaches the network (TCP or in-memory).
	Transport p2p.Transport
	// ListenAddr is the address to bind ("ip:port"; in-memory transports
	// treat it as an opaque key).
	ListenAddr string
	// AdvertiseIP and AdvertisePort are placed in pongs, query hits and
	// handshake headers. They may deliberately differ from ListenAddr —
	// hosts behind NAT advertised their private addresses, which is
	// exactly the phenomenon behind the paper's "28% of malicious
	// responses come from private address ranges".
	AdvertiseIP   net.IP
	AdvertisePort uint16
	// UserAgent is the servent identification; defaults to "SimShare/1.0".
	UserAgent string
	// Vendor is the 4-char QHD vendor code; defaults to "SIMU".
	Vendor string
	// Library is the node's shared folder; nil means share nothing.
	Library *p2p.Library
	// MaxPeers bounds ultrapeer-ultrapeer connections (default 8).
	MaxPeers int
	// MaxLeaves bounds leaf slots on an ultrapeer (default 32).
	MaxLeaves int
	// Firewalled marks query hits with the push flag: direct downloads
	// are refused and transfers require the push (GIV) flow.
	Firewalled bool
	// OnQueryHit is called for hits answering queries this node issued.
	OnQueryHit func(qh *QueryHit, msg *Message)
	// QueryResponder, when set, overrides library matching: it is called
	// for every query this node sees and may fabricate hits. Query-echo
	// malware plugs in here. Returning nil yields no response.
	QueryResponder func(q *Query, msg *Message) []Hit
	// PromiscuousQRP makes a leaf advertise a saturated QRP table so its
	// ultrapeers forward it every query — the trick query-echo malware
	// used to see (and answer) all search traffic.
	PromiscuousQRP bool
	// HitLimit caps results per query hit descriptor (default 64).
	HitLimit int
	// Log, when set, receives leveled debug logging (see internal/obs).
	Log *obs.Logger
	// ServentID is the servent GUID placed in query hits. The zero value
	// mints a random one; simulated universes pass a seeded one so their
	// records reproduce.
	ServentID guid.GUID
}

// Node is one Gnutella servent.
type Node struct {
	cfg       Config
	serventID guid.GUID
	listener  net.Listener

	mu         sync.Mutex
	peers      map[*peerConn]bool // guarded by mu
	myQueries  map[guid.GUID]bool // guarded by mu
	closed     bool               // guarded by mu
	wg         sync.WaitGroup
	routes     *routeTable // descriptor GUID -> arrival conn
	pushRoutes *routeTable // servent GUID -> conn that delivered its hits

	pushMu      sync.Mutex
	pushWaiters map[string]chan net.Conn // "index:guid" -> GIV delivery; guarded by pushMu

	hostCache *HostCache // endpoints learned from pongs

	// floods is the universe's flood ledger (see p2p.FloodLedger), nil
	// over transports that keep none.
	floods *p2p.FloodLedger
}

// peerConn is one established overlay connection: the shared peer link
// (queue, writer, read loop and flood accounting; see p2p.Link) and the
// Gnutella state kept per peer.
type peerConn struct {
	*p2p.Link[*Message]
	info   *HandshakeInfo
	isLeaf bool      // remote is our leaf
	qrp    *QRPTable // QRP table received from a leaf; guarded by qrpMu
	// qrpPatched reports that a patch followed the last reset: a table
	// that was only reset is empty and routes nothing yet.
	qrpPatched bool // guarded by qrpMu
	qrpMu      sync.Mutex
}

// byeBound is how long Close lets its writers flush their byes before it
// cuts off the peers that have not read theirs.
const byeBound = time.Second

func newPeerConn(c net.Conn, br *bufio.Reader, led *p2p.FloodLedger, info *HandshakeInfo, isLeaf bool) *peerConn {
	return &peerConn{Link: p2p.NewLink[*Message](c, br, led, new(codec)), info: info, isLeaf: isLeaf}
}

// NewNode creates a node; Start must be called to go live.
func NewNode(cfg Config) *Node {
	if cfg.UserAgent == "" {
		cfg.UserAgent = "SimShare/1.0"
	}
	if cfg.Vendor == "" {
		cfg.Vendor = "SIMU"
	}
	if cfg.MaxPeers <= 0 {
		cfg.MaxPeers = 8
	}
	if cfg.MaxLeaves <= 0 {
		cfg.MaxLeaves = 32
	}
	if cfg.HitLimit <= 0 {
		cfg.HitLimit = 64
	}
	if cfg.Library == nil {
		cfg.Library = p2p.NewLibrary()
	}
	id := cfg.ServentID
	if id.IsZero() {
		id = guid.New()
	}
	return &Node{
		cfg:         cfg,
		serventID:   id,
		peers:       make(map[*peerConn]bool),
		myQueries:   make(map[guid.GUID]bool),
		routes:      newRouteTable(0),
		pushRoutes:  newRouteTable(0),
		pushWaiters: make(map[string]chan net.Conn),
		hostCache:   NewHostCache(0),
		floods:      p2p.Floods(cfg.Transport),
	}
}

// ServentID returns the node's servent GUID.
func (n *Node) ServentID() guid.GUID { return n.serventID }

// Library returns the node's shared folder.
func (n *Node) Library() *p2p.Library { return n.cfg.Library }

// Addr returns the bound listen address (valid after Start).
func (n *Node) Addr() string {
	if n.listener == nil {
		return n.cfg.ListenAddr
	}
	return n.listener.Addr().String()
}

// Start binds the listener and begins accepting overlay connections, HTTP
// transfer requests and GIV callbacks (distinguished by protocol sniffing
// on the first request line, as real servents did on their single port).
func (n *Node) Start() error {
	l, err := n.cfg.Transport.Listen(n.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("gnutella: listen %s: %w", n.cfg.ListenAddr, err)
	}
	n.listener = l
	p2p.Accept(l, &n.wg, n.dispatch)
	return nil
}

// sniffConn hands a protocol handler the complete stream: its reads go
// through the reader that peeked the first bytes.
type sniffConn struct {
	net.Conn
	br *bufio.Reader
}

func (s *sniffConn) Read(p []byte) (int, error) { return s.br.Read(p) }

func (n *Node) dispatch(c net.Conn, br *bufio.Reader, sniff string) {
	sc := &sniffConn{Conn: c, br: br}
	switch sniff {
	case "GNUT":
		n.acceptOverlay(sc)
	case "GET ", "HEAD":
		n.serveHTTP(sc)
	case "GIV ":
		n.handleGIV(sc)
	default:
		c.Close()
	}
}

func (n *Node) acceptOverlay(sc *sniffConn) {
	opts := n.handshakeOptions()
	info, err := ServerHandshake(sc, sc.br, opts, func(hi *HandshakeInfo) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.closed {
			return false
		}
		peers, leaves := n.countsLocked()
		if hi.Ultrapeer {
			return peers < n.cfg.MaxPeers
		}
		return n.cfg.Role == Ultrapeer && leaves < n.cfg.MaxLeaves
	})
	if err != nil {
		met.handshakeAcceptErr.Inc()
		sc.Close()
		return
	}
	met.handshakeAcceptOK.Inc()
	pc := newPeerConn(sc.Conn, sc.br, n.floods, info, !info.Ultrapeer)
	if !n.addPeer(pc) {
		sc.Close()
		return
	}
	pc.Start(&n.wg)
	n.runPeer(pc)
}

func (n *Node) handshakeOptions() HandshakeOptions {
	listen := n.cfg.ListenAddr
	if n.cfg.AdvertiseIP != nil {
		listen = fmt.Sprintf("%s:%d", n.cfg.AdvertiseIP, n.cfg.AdvertisePort)
	}
	return HandshakeOptions{
		Ultrapeer:  n.cfg.Role == Ultrapeer,
		UserAgent:  n.cfg.UserAgent,
		ListenAddr: listen,
		Timeout:    10 * time.Second,
	}
}

// Connect dials a remote servent and joins the overlay through it.
func (n *Node) Connect(addr string) error {
	c, err := n.cfg.Transport.Dial(addr)
	if err != nil {
		return fmt.Errorf("gnutella: dial %s: %w", addr, err)
	}
	br := bufio.NewReaderSize(c, 32<<10)
	info, err := ClientHandshake(c, br, n.handshakeOptions())
	if err != nil {
		met.handshakeDialErr.Inc()
		c.Close()
		return err
	}
	met.handshakeDialOK.Inc()
	pc := newPeerConn(c, br, n.floods, info, false)
	if !n.addPeer(pc) {
		c.Close()
		return errors.New("gnutella: node closed")
	}
	pc.Start(&n.wg)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runPeer(pc)
	}()
	// A leaf announces its shared keywords to its new ultrapeer.
	if n.cfg.Role == Leaf {
		n.sendQRP(pc)
	}
	return nil
}

func (n *Node) sendQRP(pc *peerConn) {
	t := NewQRPTable(QRPTableBits)
	if n.cfg.PromiscuousQRP {
		for slot := uint32(0); slot < uint32(t.NumSlots()); slot++ {
			t.set(slot)
		}
	} else {
		t.AddLibrary(n.cfg.Library)
	}
	reset := &Message{GUID: guid.New(), Type: MsgRouteTable, TTL: 1, Payload: EncodeQRPReset(QRPTableBits)}
	patch := &Message{GUID: guid.New(), Type: MsgRouteTable, TTL: 1, Payload: EncodeQRPPatch(t)}
	pc.Send(reset)
	pc.Send(patch)
}

func (n *Node) addPeer(pc *peerConn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.peers[pc] = true
	if pc.isLeaf {
		met.leafGauge.Inc()
	} else {
		met.peerGauge.Inc()
	}
	return true
}

func (n *Node) removePeer(pc *peerConn) {
	n.mu.Lock()
	if _, ok := n.peers[pc]; ok {
		if pc.isLeaf {
			met.leafGauge.Dec()
		} else {
			met.peerGauge.Dec()
		}
	}
	delete(n.peers, pc)
	n.mu.Unlock()
	n.routes.dropPeer(pc)
	n.pushRoutes.dropPeer(pc)
	pc.Close()
}

func (n *Node) countsLocked() (peers, leaves int) {
	for pc := range n.peers {
		if pc.isLeaf {
			leaves++
		} else {
			peers++
		}
	}
	return
}

// NumPeers returns current (ultrapeer, leaf) connection counts.
func (n *Node) NumPeers() (peers, leaves int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.countsLocked()
}

// QRPReadyLeaves returns how many connected leaves have delivered a QRP
// route table. Population builders and churn wait on it: a freshly
// attached leaf is invisible to query forwarding until its patch has been
// applied, so measuring before then would nondeterministically drop its
// responses.
func (n *Node) QRPReadyLeaves() int {
	n.mu.Lock()
	leaves := make([]*peerConn, 0, len(n.peers))
	for pc := range n.peers {
		if pc.isLeaf {
			leaves = append(leaves, pc)
		}
	}
	n.mu.Unlock()
	ready := 0
	for _, pc := range leaves {
		pc.qrpMu.Lock()
		if pc.qrpPatched {
			ready++
		}
		pc.qrpMu.Unlock()
	}
	return ready
}

// runPeer serves the peer until its link stops, then forgets it.
func (n *Node) runPeer(pc *peerConn) {
	pc.Serve(func(m *Message) error {
		err := n.handle(pc, m)
		if err != nil {
			n.logf("handle %s from %s: %v", m.Type, pc.RemoteAddr(), err)
		}
		return err
	})
	n.removePeer(pc)
}

func (n *Node) logf(format string, args ...any) {
	n.cfg.Log.Debugf(format, args...)
}

func (n *Node) handle(pc *peerConn, m *Message) error {
	switch m.Type {
	case MsgPing:
		return n.handlePing(pc, m)
	case MsgPong:
		return n.handlePong(pc, m)
	case MsgQuery:
		return n.handleQuery(pc, m)
	case MsgQueryHit:
		return n.handleQueryHit(pc, m)
	case MsgPush:
		return n.handlePush(pc, m)
	case MsgRouteTable:
		return n.handleRouteTable(pc, m)
	case MsgBye:
		return errors.New("bye received")
	default:
		// Unknown descriptor types are dropped, per robustness principle.
		return nil
	}
}

// sendPong queues a pong reply.
func (n *Node) sendPong(pc *peerConn, g guid.GUID, ttl, hops byte, p Pong) error {
	return pc.Send(&Message{GUID: g, Type: MsgPong, TTL: ttl, Hops: hops, Payload: p.Encode()})
}

func (n *Node) handlePing(pc *peerConn, m *Message) error {
	lib := n.cfg.Library
	var kb uint32
	files := uint32(lib.Len())
	pong := Pong{Port: n.cfg.AdvertisePort, IP: n.cfg.AdvertiseIP, Files: files, KB: kb}
	if err := n.sendPong(pc, m.GUID, m.Hops+1, 0, pong); err != nil {
		return err
	}
	// Pong caching (LimeWire-style): a multi-hop ping also harvests our
	// cached endpoints, letting the pinger discover the overlay without
	// ping flooding. Ultrapeers additionally advertise their neighbors.
	if m.TTL > 1 {
		sent := 0
		if n.cfg.Role == Ultrapeer {
			n.mu.Lock()
			for other := range n.peers {
				if other == pc || other.info == nil || other.info.ListenIP == nil || other.info.ListenPort == 0 {
					continue
				}
				p := Pong{Port: other.info.ListenPort, IP: other.info.ListenIP}
				if err := n.sendPong(pc, m.GUID, m.Hops+1, 1, p); err != nil {
					break
				}
				sent++
				if sent >= 10 {
					break
				}
			}
			n.mu.Unlock()
		}
		for _, p := range n.hostCache.Pongs(10 - sent) {
			if err := n.sendPong(pc, m.GUID, m.Hops+1, 1, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (n *Node) handlePong(pc *peerConn, m *Message) error {
	pong, err := ParsePong(m.Payload)
	if err != nil {
		return err
	}
	n.hostCache.Add(pong.IP, pong.Port, pong.Files, time.Now())
	return nil
}

func (n *Node) handleQuery(pc *peerConn, m *Message) error {
	q, err := ParseQuery(m.Payload)
	if err != nil {
		return err
	}
	// Duplicate suppression + reverse-path recording in one step.
	if !n.routes.add(m.GUID, pc) {
		return nil
	}
	// Answer locally.
	hits := n.answer(&q, m)
	if len(hits) > 0 {
		qh := &QueryHit{
			Port:      n.cfg.AdvertisePort,
			IP:        n.cfg.AdvertiseIP,
			Speed:     1000,
			Hits:      hits,
			Vendor:    n.cfg.Vendor,
			ServentID: n.serventID,
		}
		if n.cfg.Firewalled {
			qh.Flags |= QHDPush
		}
		payload, err := qh.Encode()
		if err != nil {
			return err
		}
		if err := pc.Send(&Message{GUID: m.GUID, Type: MsgQueryHit, TTL: m.Hops + 1, Payload: payload}); err != nil {
			return err
		}
	}
	// Forward. An ultrapeer hands every query it accepts to its
	// QRP-matching leaves whatever TTL remains — the leaf hop is the last
	// one and costs nothing — and spends TTL only on other ultrapeers.
	// Which copy of a query reaches an ultrapeer first depends on
	// scheduling, so cutting the leaves off at TTL 1 would make the
	// answering population depend on it too.
	if n.cfg.Role != Ultrapeer {
		return nil
	}
	toMesh := m.TTL > 1
	n.mu.Lock()
	targets := make([]*peerConn, 0, len(n.peers))
	for other := range n.peers {
		if other == pc {
			continue
		}
		if other.isLeaf {
			other.qrpMu.Lock()
			match := other.qrp != nil && other.qrp.MightMatch(q.Criteria)
			other.qrpMu.Unlock()
			if !match {
				continue
			}
		} else if !toMesh {
			continue
		}
		targets = append(targets, other)
	}
	n.mu.Unlock()
	// Zero-copy forward: the received descriptor is forwarded in place —
	// only the TTL/Hops header fields change, and they change once, before
	// any target can write the message. Every target's writer then reads
	// the same descriptor.
	if m.TTL > 0 {
		m.TTL--
	}
	m.Hops++
	for _, t := range targets {
		t.Send(m)
	}
	return nil
}

// answer produces this node's own hits for a query.
func (n *Node) answer(q *Query, m *Message) []Hit {
	if n.cfg.QueryResponder != nil {
		return n.cfg.QueryResponder(q, m)
	}
	files := n.cfg.Library.Match(q.Criteria, n.cfg.HitLimit)
	hits := make([]Hit, 0, len(files))
	for _, f := range files {
		hits = append(hits, Hit{Index: f.Index, Size: uint32(f.Size), Name: f.Name, Extensions: f.SHA1})
	}
	return hits
}

func (n *Node) handleQueryHit(pc *peerConn, m *Message) error {
	qh, err := ParseQueryHit(m.Payload)
	if err != nil {
		return err
	}
	// Remember the path to the responding servent for push routing.
	n.pushRoutes.add(qh.ServentID, pc)

	n.mu.Lock()
	mine := n.myQueries[m.GUID]
	n.mu.Unlock()
	if mine {
		if n.cfg.OnQueryHit != nil {
			n.cfg.OnQueryHit(&qh, m)
		}
		return nil
	}
	dest := n.routes.lookup(m.GUID)
	if dest == nil || m.TTL <= 1 {
		return nil
	}
	// Zero-copy reverse-path forward; see handleQuery.
	m.TTL--
	m.Hops++
	return dest.Send(m)
}

func (n *Node) handlePush(pc *peerConn, m *Message) error {
	p, err := ParsePush(m.Payload)
	if err != nil {
		return err
	}
	if p.ServentID == n.serventID {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.performPush(p)
		}()
		return nil
	}
	// A push follows the last-hop rule too: only the ultrapeer mesh spends
	// TTL. The query that reached a leaf may have used up every unit of
	// TTL on the way, and the push back to it crosses the same ultrapeers.
	dest := n.pushRoutes.lookup(p.ServentID)
	if dest == nil || (m.TTL <= 1 && !dest.isLeaf) {
		return nil
	}
	// Zero-copy push forward; see handleQuery.
	if m.TTL > 0 {
		m.TTL--
	}
	m.Hops++
	return dest.Send(m)
}

func (n *Node) handleRouteTable(pc *peerConn, m *Message) error {
	pc.qrpMu.Lock()
	defer pc.qrpMu.Unlock()
	next, err := ApplyQRPUpdate(pc.qrp, m.Payload)
	if err != nil {
		return err
	}
	pc.qrp = next
	pc.qrpPatched = len(m.Payload) > 0 && m.Payload[0] == qrpVariantPatch
	return nil
}

// Query floods a keyword search and returns its GUID; hits arrive on
// Config.OnQueryHit.
func (n *Node) Query(criteria string, extensions string) (guid.GUID, error) {
	g := guid.New()
	return g, n.QueryWith(g, criteria, extensions)
}

// QueryWith floods a keyword search under a caller-supplied GUID. Callers
// that demultiplex hits by GUID (the pipelined study engine) mint the GUID
// first, register their collector, and only then flood — so the first hit
// cannot race the registration.
func (n *Node) QueryWith(g guid.GUID, criteria string, extensions string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("gnutella: node closed")
	}
	n.myQueries[g] = true
	targets := make([]*peerConn, 0, len(n.peers))
	for pc := range n.peers {
		if !pc.isLeaf {
			targets = append(targets, pc)
		}
	}
	n.mu.Unlock()
	if len(targets) == 0 {
		return errors.New("gnutella: no peers to query")
	}
	q := Query{Criteria: criteria, Extensions: extensions}
	m := &Message{GUID: g, Type: MsgQuery, TTL: DefaultTTL, Payload: q.Encode()}
	for _, pc := range targets {
		pc.Send(m)
	}
	return nil
}

// Ping sends a TTL-1 ping on every connection (liveness probe).
func (n *Node) Ping() { n.PingTTL(1) }

// PingTTL sends a ping with the given TTL on every connection; TTL > 1
// also harvests cached pongs from ultrapeers (host discovery).
func (n *Node) PingTTL(ttl byte) {
	m := &Message{GUID: guid.New(), Type: MsgPing, TTL: ttl}
	n.mu.Lock()
	targets := make([]*peerConn, 0, len(n.peers))
	for pc := range n.peers {
		targets = append(targets, pc)
	}
	n.mu.Unlock()
	for _, pc := range targets {
		pc.Send(m)
	}
}

// SendPush routes a push request toward the servent that produced a hit.
// The hit must have been received by this node (so a push route exists).
func (n *Node) SendPush(serventID guid.GUID, index uint32, ip net.IP, port uint16) error {
	p := Push{ServentID: serventID, Index: index, IP: ip, Port: port}
	dest := n.pushRoutes.lookup(serventID)
	if dest == nil {
		return errors.New("gnutella: no push route to servent")
	}
	return dest.Send(&Message{GUID: guid.New(), Type: MsgPush, TTL: DefaultTTL, Payload: p.Encode()})
}

// Close shuts the node down: listener, every connection, and waits for all
// handler goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	peers := make([]*peerConn, 0, len(n.peers))
	for pc := range n.peers {
		peers = append(peers, pc)
	}
	n.mu.Unlock()
	if n.listener != nil {
		n.listener.Close()
	}
	// Each writer shuts its peer down once its bye is flushed; a peer whose
	// bye cannot be queued is shut down at once, and peers still unread
	// after byeBound are cut off. This waits on real goroutine progress,
	// so it is wall time by design.
	bye := &Message{GUID: guid.New(), Type: MsgBye, TTL: 1, Payload: Bye{Code: 200, Reason: "shutting down"}.Encode()}
	for _, pc := range peers {
		if pc.SendLast(bye) != nil {
			pc.Close()
		}
	}
	expired := time.After(byeBound)
	for _, pc := range peers {
		select {
		case <-pc.Done():
			continue
		case <-expired:
		}
		for _, unread := range peers {
			unread.Close()
		}
		break
	}
	n.wg.Wait()
	return nil
}

// splitHostPort is a helper tolerant of mem-transport addresses. Like
// infoFromHeaders it parses the port with strconv rather than Sscanf: a
// non-numeric or out-of-range port yields 0, never a partial-prefix parse.
func splitHostPort(addr string) (string, uint16) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return addr, 0
	}
	p, err := strconv.Atoi(portStr)
	if err != nil || p < 0 || p > 65535 {
		p = 0
	}
	return host, uint16(p)
}
