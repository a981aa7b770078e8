package openft

import (
	"bufio"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2pmalware/internal/p2p"
)

// Config configures an OpenFT node.
type Config struct {
	// Class is the node's class bitmask. USER nodes share and search;
	// SEARCH nodes index children and answer searches; INDEX nodes track
	// the node list. A node may combine classes (SEARCH|INDEX).
	Class Class
	// Transport connects the node to its universe.
	Transport p2p.Transport
	// ListenAddr is the bind address.
	ListenAddr string
	// AdvertiseIP/AdvertisePort are placed in protocol messages.
	AdvertiseIP   net.IP
	AdvertisePort uint16
	// Alias is the human-readable node name.
	Alias string
	// Library is the node's shared folder (USER nodes).
	Library *p2p.Library
	// MaxChildren bounds a SEARCH node's children (default 64).
	MaxChildren int
	// SearchTTL is the forwarding budget among SEARCH peers (default 2).
	SearchTTL uint16
	// OnSearchResult receives results for searches this node issued.
	OnSearchResult func(SearchResp)
	// Logf, when set, receives debug detail: each packet a peer sent that
	// the node could not handle.
	Logf func(format string, args ...any)
}

// Node is one OpenFT node.
type Node struct {
	cfg Config

	listener net.Listener
	mu       sync.Mutex
	sessions map[*session]bool // guarded by mu
	closed   bool              // guarded by mu
	wg       sync.WaitGroup

	// SEARCH state: child share index.
	childShares map[*session]map[string]childShare // md5 -> share; guarded by mu
	searchSeen  map[uint32]bool                    // forwarded-search dedup (LRU-ish reset); guarded by mu
	respRoutes  map[uint32]*session                // search id -> origin session; guarded by mu

	// USER state: pending searches and local share-by-md5.
	myShares   map[string]*p2p.SharedFile // md5 -> file; guarded by mu
	mySearches map[uint32]bool            // guarded by mu

	// floods is the universe's flood ledger (see p2p.FloodLedger), nil
	// over transports that keep none.
	floods *p2p.FloodLedger
}

// globalSearchID issues process-unique search IDs.
var globalSearchID atomic.Uint32

type childShare struct {
	share Share
	ip    net.IP
	port  uint16
}

// session is one established OpenFT connection: the shared peer link
// (queue, writer, read loop and flood accounting; see p2p.Link) and the
// OpenFT state kept per session.
type session struct {
	*p2p.Link[*Packet]
	info NodeInfo
	// isChild marks an accepted USER child (on a SEARCH node).
	isChild bool
	// childAnswer carries the parent's CHILD_RESP verdict to
	// BecomeChildOf.
	childAnswer chan bool
}

func newSession(c net.Conn, br *bufio.Reader, led *p2p.FloodLedger) *session {
	return &session{Link: p2p.NewLink[*Packet](c, br, led, codec{}), childAnswer: make(chan bool, 1)}
}

// codec frames packets (see p2p.Codec).
type codec struct{}

// FloodKey names the flood a packet belongs to and reports whether the
// flood ledger counts it: search requests and responses (End markers
// included) share the search ID that opens their payload.
//
// lint:hotpath
func (p *Packet) FloodKey() (p2p.FloodID, bool) {
	var id p2p.FloodID
	if (p.Cmd != CmdSearchReq && p.Cmd != CmdSearchResp) || len(p.Payload) < 4 {
		return id, false
	}
	copy(id[:], p.Payload[:4])
	return id, true
}

// ReadFrame reads one packet from br.
func (codec) ReadFrame(br *bufio.Reader) (*Packet, error) { return ReadPacket(br) }

// WriteFrame stages p in bw without flushing and returns its size on the
// wire.
//
// lint:hotpath
func (codec) WriteFrame(bw *bufio.Writer, p *Packet) (int, error) {
	return 4 + len(p.Payload), p.writeTo(bw)
}

// Counters returns the command's message counters; commands past the
// known range share the last set.
//
// lint:hotpath
func (codec) Counters(p *Packet) *p2p.MessageCounters {
	return &met.msg[min(int(p.Cmd), knownCmdCount)]
}

// SearchFloodID is the flood-ledger name of search id.
func SearchFloodID(id uint32) p2p.FloodID {
	var f p2p.FloodID
	binary.BigEndian.PutUint32(f[:], id)
	return f
}

// NewNode creates an OpenFT node; Start must be called to go live.
func NewNode(cfg Config) *Node {
	if cfg.MaxChildren <= 0 {
		cfg.MaxChildren = 64
	}
	if cfg.SearchTTL == 0 {
		cfg.SearchTTL = 2
	}
	if cfg.Library == nil {
		cfg.Library = p2p.NewLibrary()
	}
	if cfg.Alias == "" {
		cfg.Alias = "openft-node"
	}
	return &Node{
		cfg:         cfg,
		sessions:    make(map[*session]bool),
		childShares: make(map[*session]map[string]childShare),
		searchSeen:  make(map[uint32]bool),
		respRoutes:  make(map[uint32]*session),
		myShares:    make(map[string]*p2p.SharedFile),
		mySearches:  make(map[uint32]bool),
		floods:      p2p.Floods(cfg.Transport),
	}
}

// Start binds the listener and serves OpenFT sessions and HTTP transfers
// (sniffed on the same port).
func (n *Node) Start() error {
	l, err := n.cfg.Transport.Listen(n.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("openft: listen %s: %w", n.cfg.ListenAddr, err)
	}
	n.listener = l
	p2p.Accept(l, &n.wg, n.dispatch)
	return nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string {
	if n.listener == nil {
		return n.cfg.ListenAddr
	}
	return n.listener.Addr().String()
}

func (n *Node) dispatch(c net.Conn, br *bufio.Reader, sniff string) {
	if sniff == "GET " || sniff == "HEAD" {
		n.serveHTTP(c, br)
		return
	}
	n.acceptSession(c, br)
}

func (n *Node) acceptSession(c net.Conn, br *bufio.Reader) {
	s := newSession(c, br, n.floods)
	// Acceptor side: expect VersionReq + NodeInfo, answer with
	// VersionResp + our NodeInfo.
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	p, err := ReadPacket(br)
	if err != nil || p.Cmd != CmdVersionReq {
		met.handshakeAcceptErr.Inc()
		c.Close()
		return
	}
	p, err = ReadPacket(br)
	if err != nil || p.Cmd != CmdNodeInfo {
		met.handshakeAcceptErr.Inc()
		c.Close()
		return
	}
	info, err := ParseNodeInfo(p.Payload)
	if err != nil {
		met.handshakeAcceptErr.Inc()
		c.Close()
		return
	}
	s.info = info
	c.SetReadDeadline(time.Time{})
	if err := s.Write(&Packet{Cmd: CmdVersionResp, Payload: []byte{0, 2, 1, 0}}); err != nil {
		met.handshakeAcceptErr.Inc()
		c.Close()
		return
	}
	if err := s.Write(n.nodeInfo().Encode()); err != nil {
		met.handshakeAcceptErr.Inc()
		c.Close()
		return
	}
	if !n.addSession(s) {
		c.Close()
		return
	}
	met.handshakeAcceptOK.Inc()
	s.Start(&n.wg)
	n.runSession(s)
}

func (n *Node) nodeInfo() NodeInfo {
	return NodeInfo{Class: n.cfg.Class, IP: n.cfg.AdvertiseIP, Port: n.cfg.AdvertisePort, Alias: n.cfg.Alias}
}

// Connect dials a remote node and establishes a session.
func (n *Node) Connect(addr string) error {
	_, err := n.connect(addr)
	return err
}

func (n *Node) connect(addr string) (*session, error) {
	c, err := n.cfg.Transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("openft: dial %s: %w", addr, err)
	}
	br := bufio.NewReader(c)
	s := newSession(c, br, n.floods)
	if err := s.Write(&Packet{Cmd: CmdVersionReq}); err != nil {
		c.Close()
		return nil, err
	}
	if err := s.Write(n.nodeInfo().Encode()); err != nil {
		c.Close()
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	p, err := ReadPacket(br)
	if err != nil || p.Cmd != CmdVersionResp {
		met.handshakeDialErr.Inc()
		c.Close()
		return nil, errors.New("openft: bad version response")
	}
	p, err = ReadPacket(br)
	if err != nil || p.Cmd != CmdNodeInfo {
		met.handshakeDialErr.Inc()
		c.Close()
		return nil, errors.New("openft: missing node info")
	}
	info, err := ParseNodeInfo(p.Payload)
	if err != nil {
		met.handshakeDialErr.Inc()
		c.Close()
		return nil, err
	}
	s.info = info
	c.SetReadDeadline(time.Time{})
	if !n.addSession(s) {
		c.Close()
		return nil, errors.New("openft: node closed")
	}
	met.handshakeDialOK.Inc()
	s.Start(&n.wg)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runSession(s)
	}()
	return s, nil
}

// BecomeChildOf registers this USER node as a child of the SEARCH node at
// addr and uploads the share list. It returns an error if the parent
// refuses.
func (n *Node) BecomeChildOf(addr string) error {
	s, err := n.connect(addr)
	if err != nil {
		return err
	}
	if s.info.Class&ClassSearch == 0 {
		return fmt.Errorf("openft: %s is not a SEARCH node", addr)
	}
	if err := s.Send(&Packet{Cmd: CmdChildReq}); err != nil {
		return err
	}
	// The accept/deny answer arrives on the reader loop, which hands it
	// over on childAnswer. The bound waits on real goroutine progress, so
	// it runs on wall time.
	select {
	case accepted := <-s.childAnswer:
		if !accepted {
			return fmt.Errorf("openft: %s refused the child request", addr)
		}
		return n.shareAll(s)
	case <-s.Done():
		return fmt.Errorf("openft: %s closed before answering the child request", addr)
	case <-time.After(5 * time.Second):
		return errors.New("openft: parent did not accept child request")
	}
}

// shareAll pushes ADDSHARE for every library file to the parent session.
func (n *Node) shareAll(s *session) error {
	files := make([]*p2p.SharedFile, 0, n.cfg.Library.Len())
	for i := uint32(1); len(files) < n.cfg.Library.Len() && i < 1<<20; i++ {
		if f := n.cfg.Library.Get(i); f != nil {
			files = append(files, f)
		}
	}
	for _, f := range files {
		sum, err := n.fileMD5(f)
		if err != nil {
			return err
		}
		sh := Share{MD5: sum, Size: uint32(f.Size), Path: f.Name}
		if err := s.Send(sh.Encode(CmdAddShare)); err != nil {
			return err
		}
	}
	return nil
}

// fileMD5 returns (caching) the hex MD5 of a shared file's content,
// preferring a precomputed SharedFile.MD5 so lazy content need not be
// materialized at share time.
func (n *Node) fileMD5(f *p2p.SharedFile) (string, error) {
	n.mu.Lock()
	for sum, g := range n.myShares {
		if g == f {
			n.mu.Unlock()
			return sum, nil
		}
	}
	n.mu.Unlock()
	sum := f.MD5
	if sum == "" {
		body, err := f.Open()
		if err != nil {
			return "", fmt.Errorf("openft: hashing %s: %w", f.Name, err)
		}
		d := md5.Sum(body.Bytes)
		body.Release()
		sum = hex.EncodeToString(d[:])
	}
	n.mu.Lock()
	n.myShares[sum] = f
	n.mu.Unlock()
	return sum, nil
}

func (n *Node) addSession(s *session) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.sessions[s] = true
	met.sessionGauge.Inc()
	return true
}

// Children returns the number of registered child sessions. Population
// builders and churn wait on it together with ChildShareCount: a child's
// shares register asynchronously after the handshake, and a search that
// races the registration would nondeterministically miss its files.
func (n *Node) Children() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.childShares)
}

// ChildShareCount returns the total number of shares registered across
// all children.
func (n *Node) ChildShareCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, shares := range n.childShares {
		total += len(shares)
	}
	return total
}

func (n *Node) removeSession(s *session) {
	n.mu.Lock()
	if _, ok := n.sessions[s]; ok {
		met.sessionGauge.Dec()
	}
	if n.childShares[s] != nil {
		met.childGauge.Dec()
	}
	delete(n.sessions, s)
	delete(n.childShares, s)
	for id, sess := range n.respRoutes {
		if sess == s {
			delete(n.respRoutes, id)
		}
	}
	n.mu.Unlock()
	s.Close()
}

// runSession serves the session until its link stops, then forgets it.
func (n *Node) runSession(s *session) {
	s.Serve(func(p *Packet) error {
		err := n.handle(s, p)
		if err != nil && n.cfg.Logf != nil {
			n.cfg.Logf("handle %s from %s: %v", p.Cmd, s.RemoteAddr(), err)
		}
		return err
	})
	n.removeSession(s)
}

func (n *Node) handle(s *session, p *Packet) error {
	switch p.Cmd {
	case CmdChildReq:
		return n.handleChildReq(s)
	case CmdChildResp:
		cr, err := ParseChildResp(p.Payload)
		if err != nil {
			return err
		}
		n.mu.Lock()
		s.isChild = cr.Accepted
		n.mu.Unlock()
		select {
		case s.childAnswer <- cr.Accepted:
		default: // an unsolicited or repeated answer
		}
		return nil
	case CmdAddShare:
		return n.handleAddShare(s, p)
	case CmdRemShare:
		return n.handleRemShare(s, p)
	case CmdSearchReq:
		return n.handleSearchReq(s, p)
	case CmdSearchResp:
		return n.handleSearchResp(s, p)
	case CmdStatsReq:
		return n.handleStatsReq(s)
	case CmdNodeListReq:
		return n.handleNodeListReq(s)
	default:
		return nil // unknown commands are ignored
	}
}

func (n *Node) handleChildReq(s *session) error {
	if n.cfg.Class&ClassSearch == 0 {
		return s.Send(ChildResp{Accepted: false}.Encode())
	}
	n.mu.Lock()
	children := 0
	for sess := range n.childShares {
		if n.sessions[sess] {
			children++
		}
	}
	accept := children < n.cfg.MaxChildren
	if accept {
		if n.childShares[s] == nil {
			n.childShares[s] = make(map[string]childShare)
			met.childGauge.Inc()
		}
		s.isChild = true
	}
	n.mu.Unlock()
	return s.Send(ChildResp{Accepted: accept}.Encode())
}

func (n *Node) handleAddShare(s *session, p *Packet) error {
	sh, err := ParseShare(p.Payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !s.isChild || n.childShares[s] == nil {
		return nil // shares from non-children are dropped
	}
	n.childShares[s][sh.MD5+"|"+sh.Path] = childShare{share: sh, ip: s.info.IP, port: s.info.Port}
	return nil
}

func (n *Node) handleRemShare(s *session, p *Packet) error {
	sh, err := ParseShare(p.Payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.childShares[s]; m != nil {
		delete(m, sh.MD5+"|"+sh.Path)
	}
	return nil
}

func (n *Node) handleSearchReq(s *session, p *Packet) error {
	req, err := ParseSearchReq(p.Payload)
	if err != nil {
		return err
	}
	if n.cfg.Class&ClassSearch == 0 {
		return nil
	}
	n.mu.Lock()
	if n.searchSeen[req.ID] {
		n.mu.Unlock()
		return nil
	}
	if len(n.searchSeen) > 65536 {
		n.searchSeen = make(map[uint32]bool)
	}
	n.searchSeen[req.ID] = true
	n.respRoutes[req.ID] = s
	// Collect matches from the child-share index. The query is tokenized
	// once and probed against every share path.
	var qkwBuf [16]string
	qkws := p2p.AppendKeywords(qkwBuf[:0], req.Query)
	var matches []childShare
	if len(qkws) > 0 {
		for _, shares := range n.childShares {
			for _, cs := range shares {
				if p2p.MatchesAllKeywords(cs.share.Path, qkws) {
					matches = append(matches, cs)
				}
			}
		}
	}
	// Forwarding targets: other SEARCH sessions.
	var fwd []*session
	if req.TTL > 1 {
		for sess := range n.sessions {
			if sess != s && sess.info.Class&ClassSearch != 0 {
				fwd = append(fwd, sess)
			}
		}
	}
	n.mu.Unlock()

	for _, cs := range matches {
		resp := SearchResp{ID: req.ID, IP: cs.ip, Port: cs.port, Size: cs.share.Size, MD5: cs.share.MD5, Path: cs.share.Path}
		if err := s.Send(resp.Encode()); err != nil {
			return err
		}
	}
	if err := s.Send(SearchResp{ID: req.ID, End: true}.Encode()); err != nil {
		return err
	}
	fwdReq := SearchReq{ID: req.ID, TTL: req.TTL - 1, Query: req.Query}
	for _, sess := range fwd {
		sess.Send(fwdReq.Encode())
	}
	return nil
}

func (n *Node) handleSearchResp(s *session, p *Packet) error {
	resp, err := ParseSearchResp(p.Payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	mine := n.mySearches[resp.ID]
	origin := n.respRoutes[resp.ID]
	n.mu.Unlock()
	if mine {
		if !resp.End && n.cfg.OnSearchResult != nil {
			n.cfg.OnSearchResult(resp)
		}
		return nil
	}
	// Relay results (not remote End markers) toward the origin, as they
	// came.
	if origin != nil && !resp.End {
		return origin.Send(p)
	}
	return nil
}

// handleNodeListReq answers with the SEARCH/INDEX nodes this node knows
// about (its current sessions), giFT's bootstrap mechanism.
func (n *Node) handleNodeListReq(s *session) error {
	n.mu.Lock()
	var entries []NodeListEntry
	for sess := range n.sessions {
		if sess == s || sess.info.Class&(ClassSearch|ClassIndex) == 0 {
			continue
		}
		if sess.info.IP == nil || sess.info.Port == 0 {
			continue
		}
		entries = append(entries, NodeListEntry{IP: sess.info.IP, Port: sess.info.Port, Class: sess.info.Class})
		if len(entries) >= 32 {
			break
		}
	}
	n.mu.Unlock()
	return s.Send(EncodeNodeList(entries))
}

// handleStatsReq answers with the children's share count and total size.
// The bytes are summed first and rounded down to KB once, as a Gnutella
// pong does, so shares under 1 KB still count.
func (n *Node) handleStatsReq(s *session) error {
	n.mu.Lock()
	var shares uint32
	var size uint64
	for _, m := range n.childShares {
		for _, cs := range m {
			shares++
			size += uint64(cs.share.Size)
		}
	}
	st := Stats{Children: uint32(len(n.childShares)), Shares: shares, SizeKB: uint32(min(size>>10, math.MaxUint32))}
	n.mu.Unlock()
	return s.Send(st.Encode())
}

// Search issues a search through every connected SEARCH parent and returns
// the search ID; results stream to Config.OnSearchResult.
func (n *Node) Search(query string) (uint32, error) {
	id := NewSearchID()
	return id, n.SearchWith(id, query)
}

// NewSearchID mints a fresh search ID without sending anything. Search IDs
// must be unique across the whole simulated universe so the SEARCH-tier
// dedup and response routing never conflate two searches; a process-wide
// counter guarantees that deterministically.
func NewSearchID() uint32 {
	return globalSearchID.Add(1)
}

// SearchWith issues a search under a caller-minted ID (see NewSearchID).
// Callers that demultiplex results by ID register their collector before
// sending, so the first result cannot race the registration.
func (n *Node) SearchWith(id uint32, query string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("openft: node closed")
	}
	n.mySearches[id] = true
	var parents []*session
	for s := range n.sessions {
		if s.info.Class&ClassSearch != 0 {
			parents = append(parents, s)
		}
	}
	n.mu.Unlock()
	if len(parents) == 0 {
		return errors.New("openft: no search parents")
	}
	req := SearchReq{ID: id, TTL: n.cfg.SearchTTL, Query: query}
	for _, s := range parents {
		if err := s.Send(req.Encode()); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the node down.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	sessions := make([]*session, 0, len(n.sessions))
	for s := range n.sessions {
		sessions = append(sessions, s)
	}
	n.mu.Unlock()
	if n.listener != nil {
		n.listener.Close()
	}
	for _, s := range sessions {
		s.Close()
	}
	n.wg.Wait()
	return nil
}
