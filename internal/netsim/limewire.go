package netsim

import (
	"fmt"
	"net"
	"sync"
	"time"

	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/guid"
	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/simclock"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

// LimeWireConfig sizes the simulated Gnutella universe.
type LimeWireConfig struct {
	// Seed drives all population randomness; same seed, same universe.
	Seed uint64
	// Ultrapeers is the size of the fully-meshed ultrapeer core
	// (default 4).
	Ultrapeers int
	// HonestLeaves is the number of honest leaf servents (default 100).
	HonestLeaves int
	// FilesPerHonestLeaf is each honest leaf's shared-folder size
	// (default 8).
	FilesPerHonestLeaf int
	// HonestDownloadableShare is the fraction of honest shared files that
	// are archives/executables rather than media (default 0.30). This is
	// the main knob for the malicious share of downloadable responses.
	HonestDownloadableShare float64
	// EchoHosts is the number of query-echo malware responders
	// (default 33; set to a negative value to disable query-echo hosts
	// entirely, as the no-query-echo ablation does).
	EchoHosts int
	// EchoPrivateShare is the fraction of echo hosts advertising RFC1918
	// addresses behind NAT (default 0.28 — the paper's headline source
	// observation).
	EchoPrivateShare float64
	// FakeFileShare is the fraction of honest downloadable files that are
	// decoys: enticing name and advertised size, junk content of a
	// different true size (default 0 — off — so the headline calibration
	// is unaffected; the fake-content extension experiment turns it on).
	FakeFileShare float64
	// TailResponseShare is the target fraction of malicious responses
	// contributed by shared-folder tail infections (default 0.01, i.e.
	// top-3 echo families keep 99%).
	TailResponseShare float64
	// Catalog is the malware ecology (default malware.LimeWireCatalog).
	Catalog *malware.Catalog
	// Workload calibrates infected-file term assignment; it must use the
	// same corpus and skew as the measurement driver (default corpus,
	// s=1.0).
	ZipfExponent float64
}

func (c *LimeWireConfig) applyDefaults() {
	if c.Ultrapeers <= 0 {
		c.Ultrapeers = 4
	}
	if c.HonestLeaves <= 0 {
		c.HonestLeaves = 100
	}
	if c.FilesPerHonestLeaf <= 0 {
		c.FilesPerHonestLeaf = 8
	}
	if c.HonestDownloadableShare == 0 {
		c.HonestDownloadableShare = 0.26
	}
	if c.EchoHosts == 0 {
		c.EchoHosts = 33
	}
	if c.EchoHosts < 0 {
		c.EchoHosts = 0
	}
	if c.EchoPrivateShare == 0 {
		c.EchoPrivateShare = 0.28
	}
	if c.TailResponseShare == 0 {
		c.TailResponseShare = 0.01
	}
	if c.Catalog == nil {
		c.Catalog = malware.LimeWireCatalog()
	}
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 1.0
	}
}

// LimeWireNet is a running simulated Gnutella universe.
type LimeWireNet struct {
	// Mem is the transport universe.
	Mem *p2p.Mem
	// Ultrapeers are the core nodes, for the instrumented client to
	// connect to.
	Ultrapeers []*gnutella.Node
	// Nodes are all running nodes (including ultrapeers).
	Nodes []*gnutella.Node
	// Specs describe every synthesized host, parallel to Nodes.
	Specs []*HostSpec

	mu sync.Mutex
	// honest tracks the currently-live honest leaves for churn.
	honest []*gnutella.Node
	// newHonestLeaf builds and attaches one fresh honest leaf.
	newHonestLeaf func(attachIdx int) (*gnutella.Node, *HostSpec, error)
	churnID       int
}

// UltrapeerAddrs returns dialable addresses of the core.
func (n *LimeWireNet) UltrapeerAddrs() []string {
	out := make([]string, len(n.Ultrapeers))
	for i, up := range n.Ultrapeers {
		out[i] = up.Addr()
	}
	return out
}

// Close shuts every node down.
func (n *LimeWireNet) Close() {
	n.mu.Lock()
	nodes := append([]*gnutella.Node(nil), n.Nodes...)
	n.mu.Unlock()
	for _, node := range nodes {
		node.Close()
	}
}

// ChurnHonest models population turnover: it closes a fraction frac of the
// live honest leaves (their shared files — and any in-flight downloads
// from them — disappear) and brings up the same number of fresh honest
// leaves at new addresses. Echo hosts and tail infections persist,
// matching the paper's observation that malware sources were stable over
// the trace. It returns how many leaves were replaced.
//
// ChurnHonest returns only once the overlay has fully re-formed: the
// departed leaves are deregistered and every replacement is registered
// with a QRP table applied. Callers churn behind a pipeline barrier, so
// this wait is what makes mid-study churn deterministic — the next query
// floods a completely settled population, never a half-attached one.
func (n *LimeWireNet) ChurnHonest(frac float64) (int, error) {
	if frac <= 0 {
		return 0, nil
	}
	n.mu.Lock()
	k := int(frac * float64(len(n.honest)))
	if k > len(n.honest) {
		k = len(n.honest)
	}
	leaving := n.honest[:k]
	n.honest = append([]*gnutella.Node(nil), n.honest[k:]...)
	factory := n.newHonestLeaf
	n.mu.Unlock()
	if factory == nil {
		return 0, fmt.Errorf("netsim: network does not support churn")
	}
	before := n.leafTotal()
	for _, node := range leaving {
		node.Close()
	}
	// Departures deregister asynchronously (the ultrapeer's reader sees
	// the closed conn); wait them out before attaching replacements so
	// the arrival wait below cannot be satisfied by a zombie.
	if err := n.waitLeaves(func() bool { return n.leafTotal() <= before-k }, "leaf departures"); err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		n.mu.Lock()
		n.churnID++
		id := n.churnID
		n.mu.Unlock()
		node, spec, err := factory(id)
		if err != nil {
			return i, err
		}
		n.mu.Lock()
		n.honest = append(n.honest, node)
		n.Nodes = append(n.Nodes, node)
		n.Specs = append(n.Specs, spec)
		n.mu.Unlock()
	}
	if err := n.waitLeaves(func() bool {
		return n.leafTotal() >= before && n.qrpReadyTotal() >= before
	}, "replacement leaves"); err != nil {
		return 0, err
	}
	return k, nil
}

// leafTotal sums registered leaf connections across the ultrapeer core.
func (n *LimeWireNet) leafTotal() int {
	total := 0
	for _, up := range n.Ultrapeers {
		_, l := up.NumPeers()
		total += l
	}
	return total
}

// qrpReadyTotal sums leaves whose QRP table has been applied — only those
// are reachable by query forwarding.
func (n *LimeWireNet) qrpReadyTotal() int {
	total := 0
	for _, up := range n.Ultrapeers {
		total += up.QRPReadyLeaves()
	}
	return total
}

// waitLeaves polls real goroutine progress (acceptor registration, QRP
// patch application), so it runs on the wall clock even when the trace
// clock is virtual.
func (n *LimeWireNet) waitLeaves(formed func() bool, what string) error {
	wall := wallClock
	deadline := wall.Now().Add(10 * time.Second)
	for !formed() {
		if wall.Now().After(deadline) {
			return fmt.Errorf("netsim: %s never settled", what)
		}
		simclock.Sleep(wall, 2*time.Millisecond)
	}
	return nil
}

// LiveHonestLeaves returns the number of currently-live honest leaves.
func (n *LimeWireNet) LiveHonestLeaves() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.honest)
}

// BuildLimeWire synthesizes and starts the simulated LimeWire universe.
func BuildLimeWire(cfg LimeWireConfig) (*LimeWireNet, error) {
	cfg.applyDefaults()
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed, 0x11ABE)
	// Servent IDs come from their own stream, drawn in host build order,
	// so they reproduce without shifting any population draw.
	idRNG := stats.NewRNG(cfg.Seed, 0x5E1D)
	serventID := func() guid.GUID { return guid.NewFromRand(idRNG.Fill) }
	gen, err := workload.NewGenerator(stats.NewRNG(cfg.Seed, 0x3A11), workload.DefaultCorpus(), cfg.ZipfExponent)
	if err != nil {
		return nil, err
	}
	pubPool, err := ipaddr.NewMixedAllocator(ipaddr.ClassMix{Public: 1})
	if err != nil {
		return nil, err
	}
	privPool, err := ipaddr.NewMixedAllocator(ipaddr.ClassMix{Private: 1})
	if err != nil {
		return nil, err
	}

	mem := p2p.NewMem()
	net_ := &LimeWireNet{Mem: mem}
	fail := func(err error) (*LimeWireNet, error) {
		net_.Close()
		return nil, err
	}

	// Ultrapeer core: full mesh.
	for i := 0; i < cfg.Ultrapeers; i++ {
		ip, err := pubPool.Next()
		if err != nil {
			return fail(err)
		}
		spec := &HostSpec{Kind: KindUltrapeer, IP: ip, Port: 6346, ListenKey: fmt.Sprintf("%s:6346", ip)}
		node := gnutella.NewNode(gnutella.Config{
			Role: gnutella.Ultrapeer, Transport: mem,
			ListenAddr: spec.ListenKey, AdvertiseIP: ip, AdvertisePort: 6346,
			UserAgent: "LimeWire/4.9.37", Vendor: "LIME",
			MaxPeers: cfg.Ultrapeers + 4, MaxLeaves: cfg.HonestLeaves + cfg.EchoHosts + 64,
			ServentID: serventID(),
		})
		if err := node.Start(); err != nil {
			return fail(err)
		}
		net_.Ultrapeers = append(net_.Ultrapeers, node)
		net_.Nodes = append(net_.Nodes, node)
		net_.Specs = append(net_.Specs, spec)
	}
	for i := 0; i < len(net_.Ultrapeers); i++ {
		for j := i + 1; j < len(net_.Ultrapeers); j++ {
			if err := net_.Ultrapeers[i].Connect(net_.Ultrapeers[j].Addr()); err != nil {
				return fail(fmt.Errorf("netsim: mesh %d->%d: %w", i, j, err))
			}
		}
	}

	attach := func(node *gnutella.Node, i int) error {
		return node.Connect(net_.Ultrapeers[i%len(net_.Ultrapeers)].Addr())
	}

	// Honest leaves. The factory is retained on the net for churn: fresh
	// leaves draw new addresses and new shared folders from the same
	// deterministic streams.
	corpus := gen.Corpus()
	termPick := stats.NewZipf(rng, cfg.ZipfExponent, len(corpus))
	buildHonest := func(attachIdx int) (*gnutella.Node, *HostSpec, error) {
		ip, err := pubPool.Next()
		if err != nil {
			return nil, nil, err
		}
		lib := p2p.NewLibrary()
		for fidx := 0; fidx < cfg.FilesPerHonestLeaf; fidx++ {
			term := corpus[termPick.Next()]
			downloadable := rng.Bool(cfg.HonestDownloadableShare)
			var f *p2p.SharedFile
			if downloadable && rng.Bool(cfg.FakeFileShare) {
				f = fakeFile(term, rng.IntN(100), rng)
			} else {
				f = honestFile(term, rng.IntN(100), downloadable, rng)
			}
			if _, err := lib.Add(f); err != nil {
				return nil, nil, err
			}
		}
		spec := &HostSpec{Kind: KindHonestLeaf, IP: ip, Port: 6346, ListenKey: fmt.Sprintf("%s:6346", ip)}
		node := gnutella.NewNode(gnutella.Config{
			Role: gnutella.Leaf, Transport: mem,
			ListenAddr: spec.ListenKey, AdvertiseIP: ip, AdvertisePort: 6346,
			UserAgent: "LimeWire/4.9.37", Vendor: "LIME", Library: lib,
			ServentID: serventID(),
		})
		if err := node.Start(); err != nil {
			return nil, nil, err
		}
		if err := attach(node, attachIdx); err != nil {
			node.Close()
			return nil, nil, err
		}
		return node, spec, nil
	}
	net_.newHonestLeaf = buildHonest
	for i := 0; i < cfg.HonestLeaves; i++ {
		node, spec, err := buildHonest(i)
		if err != nil {
			return fail(err)
		}
		net_.honest = append(net_.honest, node)
		net_.Nodes = append(net_.Nodes, node)
		net_.Specs = append(net_.Specs, spec)
	}

	// Query-echo malware hosts, apportioned across echo-strategy families
	// by catalog weight, with a fraction advertising private addresses.
	echoFams := echoFamilies(cfg.Catalog)
	if len(echoFams) == 0 && cfg.EchoHosts > 0 {
		return fail(fmt.Errorf("netsim: catalog has no query-echo families"))
	}
	weights := make([]float64, len(echoFams))
	for i, f := range echoFams {
		weights[i] = f.Weight
	}
	counts := apportion(cfg.EchoHosts, weights)
	echoIdx := 0
	privDebt := 0.0
	for fi, f := range echoFams {
		for k := 0; k < counts[fi]; k++ {
			// Largest-remainder interleaving keeps the private share even
			// across families, not front-loaded onto the heaviest one.
			privDebt += cfg.EchoPrivateShare
			private := privDebt >= 1
			if private {
				privDebt--
			}
			var ip net.IP
			var err error
			if private {
				ip, err = privPool.Next()
			} else {
				ip, err = pubPool.Next()
			}
			if err != nil {
				return fail(err)
			}
			spec := &HostSpec{Kind: KindEchoMalware, IP: ip, Port: 6346, Family: f, Firewalled: private}
			if private {
				// NAT: the advertised endpoint is not dialable; the real
				// listen key is hidden.
				spec.ListenKey = fmt.Sprintf("nat!%s:6346", ip)
			} else {
				spec.ListenKey = fmt.Sprintf("%s:6346", ip)
			}
			node, err := buildEchoNode(mem, spec, f, echoIdx, serventID())
			if err != nil {
				return fail(err)
			}
			if err := node.Start(); err != nil {
				return fail(err)
			}
			if err := attach(node, echoIdx); err != nil {
				return fail(err)
			}
			net_.Nodes = append(net_.Nodes, node)
			net_.Specs = append(net_.Specs, spec)
			echoIdx++
		}
	}

	// Shared-folder tail infections: hosts carrying one infected file
	// named after a mid-popularity term, budgeted so the tail contributes
	// ~TailResponseShare of malicious responses.
	tailFams := tailFamilies(cfg.Catalog)
	if len(tailFams) > 0 {
		// The tail's response budget scales with the echo cohort in normal
		// runs; the no-query-echo ablation (EchoHosts disabled) keeps the
		// tail at its absolute default level so shared-folder infections
		// remain observable on their own.
		refEcho := float64(cfg.EchoHosts)
		if refEcho == 0 {
			refEcho = 33
		}
		tailMass := refEcho * cfg.TailResponseShare / (1 - cfg.TailResponseShare)
		ranks := massAssignment(gen, 12, tailMass)
		for i, rank := range ranks {
			f := tailFams[i%len(tailFams)]
			ip, err := pubPool.Next()
			if err != nil {
				return fail(err)
			}
			lib := p2p.NewLibrary()
			inf, err := infectedFile(f, i, corpus[rank])
			if err != nil {
				return fail(err)
			}
			if _, err := lib.Add(inf); err != nil {
				return fail(err)
			}
			// Tail hosts look honest otherwise.
			for fidx := 0; fidx < 3; fidx++ {
				term := corpus[termPick.Next()]
				if _, err := lib.Add(honestFile(term, rng.IntN(100), false, rng)); err != nil {
					return fail(err)
				}
			}
			spec := &HostSpec{Kind: KindTailInfected, IP: ip, Port: 6346, Family: f, ListenKey: fmt.Sprintf("%s:6346", ip)}
			node := gnutella.NewNode(gnutella.Config{
				Role: gnutella.Leaf, Transport: mem,
				ListenAddr: spec.ListenKey, AdvertiseIP: ip, AdvertisePort: 6346,
				UserAgent: "LimeWire/4.9.33", Vendor: "LIME", Library: lib,
				ServentID: serventID(),
			})
			if err := node.Start(); err != nil {
				return fail(err)
			}
			if err := attach(node, i); err != nil {
				return fail(err)
			}
			net_.Nodes = append(net_.Nodes, node)
			net_.Specs = append(net_.Specs, spec)
		}
	}

	// Connect() returns once the dialer's side is up; the accepting
	// ultrapeer registers the peer — and applies its QRP patch — on its
	// own goroutines. Wait for the whole population to be registered and
	// query-reachable so measurement starts on a fully-formed overlay.
	wantLeaves := 0
	for _, spec := range net_.Specs {
		if spec.Kind != KindUltrapeer {
			wantLeaves++
		}
	}
	if err := net_.waitLeaves(func() bool {
		return net_.leafTotal() >= wantLeaves && net_.qrpReadyTotal() >= wantLeaves
	}, "initial population"); err != nil {
		return fail(err)
	}

	return net_, nil
}

// buildEchoNode constructs a query-echo malware servent: it shares its
// family specimen and answers every query with a query-derived filename
// pointing at that specimen.
func buildEchoNode(mem *p2p.Mem, spec *HostSpec, f *malware.Family, hostIdx int, id guid.GUID) (*gnutella.Node, error) {
	specimen, err := specimenFile("shared"+f.Container.Extension(), f, hostIdx%f.NumVariants())
	if err != nil {
		return nil, err
	}
	lib := p2p.NewLibrary()
	if _, err := lib.Add(specimen); err != nil {
		return nil, err
	}
	nameRNG := stats.NewRNG(uint64(hostIdx), 0xEC40)
	node := gnutella.NewNode(gnutella.Config{
		Role: gnutella.Leaf, Transport: mem,
		ListenAddr: spec.ListenKey, AdvertiseIP: spec.IP, AdvertisePort: spec.Port,
		UserAgent: "LimeWire/4.2.6", Vendor: "LIME",
		Library: lib, Firewalled: spec.Firewalled, PromiscuousQRP: true,
		ServentID: id,
		QueryResponder: func(q *gnutella.Query, m *gnutella.Message) []gnutella.Hit {
			return []gnutella.Hit{{
				Index: specimen.Index,
				Size:  uint32(specimen.Size),
				Name:  f.ResponseFilename(q.Criteria, nameRNG),
				// Real echo responders advertised the HUGE URN of their
				// one replicated payload under every decoy name; carrying
				// it lets a hardened client verify the body and find
				// alternate sources for the same content.
				Extensions: specimen.SHA1,
			}}
		},
	})
	return node, nil
}

func echoFamilies(c *malware.Catalog) []*malware.Family {
	var out []*malware.Family
	for _, f := range c.Families {
		if f.Strategy == malware.QueryEcho {
			out = append(out, f)
		}
	}
	return out
}

func tailFamilies(c *malware.Catalog) []*malware.Family {
	var out []*malware.Family
	for _, f := range c.Families {
		if f.Strategy == malware.SharedFolder {
			out = append(out, f)
		}
	}
	return out
}
