package netsim

import (
	"fmt"
	"net"

	"p2pmalware/internal/gnutella"
	"p2pmalware/internal/guid"
	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

// The LimeWire population's fixed calibration.
const (
	// leafFiles is each honest leaf's shared-folder size.
	leafFiles = 8
	// leafDownloadableShare is the fraction of honest shared files that
	// are archives/executables rather than media. It sets the malicious
	// share of downloadable responses.
	leafDownloadableShare = 0.26
	// echoPrivateShare is the fraction of echo hosts advertising RFC1918
	// addresses behind NAT, the paper's 28% private sources (T4). The
	// largest-remainder loop in BuildLimeWire makes 9 of the default 33
	// echo hosts private (27.3%). Every echo host answers every query,
	// and the public tail-infection hosts add the remaining malicious
	// responses, so the measured share sits just under 27.3%: at seed 70
	// (3 days × 80 queries) the echo hosts sent 7,920 of 7,986 malicious
	// responses, 2,160 of them from private hosts, 27.05%.
	echoPrivateShare = 0.28
	// tailResponseShare is the target fraction of malicious responses
	// from shared-folder tail infections, so the top-3 echo families
	// keep 99%.
	tailResponseShare = 0.01
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
	// EchoHosts is the number of query-echo malware responders
	// (default 33; set to a negative value to disable query-echo hosts
	// entirely, as the no-query-echo ablation does).
	EchoHosts int
	// FakeFileShare is the fraction of honest downloadable files that are
	// decoys: enticing name and advertised size, junk content of a
	// different true size (default 0 — off — so the headline calibration
	// is unaffected; the fake-content extension experiment turns it on).
	FakeFileShare float64
	// Catalog is the malware ecology (default malware.LimeWireCatalog).
	Catalog *malware.Catalog
}

func (c *LimeWireConfig) applyDefaults() {
	if c.Ultrapeers <= 0 {
		c.Ultrapeers = 4
	}
	if c.HonestLeaves <= 0 {
		c.HonestLeaves = 100
	}
	if c.EchoHosts == 0 {
		c.EchoHosts = 33
	}
	if c.EchoHosts < 0 {
		c.EchoHosts = 0
	}
	if c.Catalog == nil {
		c.Catalog = malware.LimeWireCatalog()
	}
}

// LimeWireNet is a running simulated Gnutella universe. Churn replaces
// its honest leaves.
type LimeWireNet struct {
	universe[*gnutella.Node]
	// Ultrapeers are the core nodes, for the instrumented client to
	// connect to.
	Ultrapeers []*gnutella.Node
}

// UltrapeerAddrs returns dialable addresses of the core.
func (n *LimeWireNet) UltrapeerAddrs() []string { return addrs(n.Ultrapeers) }

// leaves sums, across the ultrapeer core, the registered leaves and those
// whose QRP table has been applied; only the latter are reachable by
// query forwarding.
func (n *LimeWireNet) leaves() (registered, qrpReady int) {
	for _, up := range n.Ultrapeers {
		_, l := up.NumPeers()
		registered += l
		qrpReady += up.QRPReadyLeaves()
	}
	return registered, qrpReady
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
	gen, err := workload.NewGenerator(stats.NewRNG(cfg.Seed, 0x3A11), workload.DefaultCorpus(), workload.Skew)
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
	net_ := &LimeWireNet{}
	net_.Mem = mem
	// An honest leaf is one registered and one QRP-ready leaf.
	net_.registered, net_.perHonest = net_.leaves, 1
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
		net_.add(node, spec)
	}
	if err := mesh(net_.Ultrapeers); err != nil {
		return fail(err)
	}

	attach := func(node *gnutella.Node, i int) error {
		return node.Connect(net_.Ultrapeers[i%len(net_.Ultrapeers)].Addr())
	}

	// Honest leaves. The factory is retained on the net for churn: fresh
	// leaves draw new addresses and new shared folders from the same
	// deterministic streams.
	corpus := gen.Corpus()
	termPick := stats.NewZipf(rng, workload.Skew, len(corpus))
	buildHonest := func(attachIdx int) (*gnutella.Node, *HostSpec, error) {
		ip, err := pubPool.Next()
		if err != nil {
			return nil, nil, err
		}
		lib := p2p.NewLibrary()
		for fidx := 0; fidx < leafFiles; fidx++ {
			term := corpus[termPick.Next()]
			downloadable := rng.Bool(leafDownloadableShare)
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
	net_.newHonest = buildHonest
	for i := 0; i < cfg.HonestLeaves; i++ {
		node, spec, err := buildHonest(i)
		if err != nil {
			return fail(err)
		}
		net_.addHonest(node, spec)
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
			privDebt += echoPrivateShare
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
			net_.add(node, spec)
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
		tailMass := refEcho * tailResponseShare / (1 - tailResponseShare)
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
			net_.add(node, spec)
		}
	}

	// Connect() returns once the dialer's side is up; the accepting
	// ultrapeer registers the peer — and applies its QRP patch — on its
	// own goroutines. Wait for the whole population to be registered and
	// query-reachable so measurement starts on a fully-formed overlay.
	want := len(net_.Specs) - len(net_.Ultrapeers)
	if err := net_.settle("initial population", func(leaves, qrpReady int) bool {
		return leaves >= want && qrpReady >= want
	}); err != nil {
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
