package netsim

import (
	"fmt"

	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/openft"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

// The OpenFT population's fixed calibration.
const (
	// userFiles is each honest user's shared-folder size.
	userFiles = 8
	// userDownloadableShare is the archive/executable fraction of honest
	// shares. It sets the honest downloadable response volume, not the
	// malicious share: the malicious budget scales with that volume (see
	// BuildOpenFT), so changing it leaves OpenFT's 3% in place.
	userDownloadableShare = 0.42
	// maliciousShare is the target fraction of downloadable responses
	// that are malicious, the paper's OpenFT headline (T2's 3%). It
	// alone sets that number.
	maliciousShare = 0.03
)

// OpenFTConfig sizes the simulated OpenFT universe.
type OpenFTConfig struct {
	// Seed drives all population randomness.
	Seed uint64
	// SearchNodes is the SEARCH-tier size (default 3; the first also
	// carries the INDEX class).
	SearchNodes int
	// HonestUsers is the number of honest USER hosts (default 60).
	HonestUsers int
	// Catalog is the malware ecology (default malware.OpenFTCatalog).
	Catalog *malware.Catalog
}

func (c *OpenFTConfig) applyDefaults() {
	if c.SearchNodes <= 0 {
		c.SearchNodes = 3
	}
	if c.HonestUsers <= 0 {
		c.HonestUsers = 60
	}
	if c.Catalog == nil {
		c.Catalog = malware.OpenFTCatalog()
	}
}

// OpenFTNet is a running simulated OpenFT universe. Churn replaces its
// honest users.
type OpenFTNet struct {
	universe[*openft.Node]
	// SearchNodes are the SEARCH-tier nodes the instrumented client
	// connects to.
	SearchNodes []*openft.Node
}

// SearchAddrs returns dialable SEARCH-node addresses.
func (n *OpenFTNet) SearchAddrs() []string { return addrs(n.SearchNodes) }

// children sums registered children and their shares across the SEARCH
// tier.
func (n *OpenFTNet) children() (children, shares int) {
	for _, s := range n.SearchNodes {
		children += s.Children()
		shares += s.ChildShareCount()
	}
	return children, shares
}

// BuildOpenFT synthesizes and starts the simulated OpenFT universe.
func BuildOpenFT(cfg OpenFTConfig) (*OpenFTNet, error) {
	cfg.applyDefaults()
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed, 0x0F7A)
	gen, err := workload.NewGenerator(stats.NewRNG(cfg.Seed, 0x3A11), workload.DefaultCorpus(), workload.Skew)
	if err != nil {
		return nil, err
	}
	pubPool, err := ipaddr.NewMixedAllocator(ipaddr.ClassMix{Public: 1})
	if err != nil {
		return nil, err
	}

	mem := p2p.NewMem()
	net_ := &OpenFTNet{}
	net_.Mem = mem
	// An honest user is one registered child and userFiles shares.
	net_.registered, net_.perHonest = net_.children, userFiles
	fail := func(err error) (*OpenFTNet, error) {
		net_.Close()
		return nil, err
	}

	// SEARCH tier, fully meshed; node 0 is also the INDEX node.
	for i := 0; i < cfg.SearchNodes; i++ {
		ip, err := pubPool.Next()
		if err != nil {
			return fail(err)
		}
		class := openft.ClassSearch
		if i == 0 {
			class |= openft.ClassIndex
		}
		spec := &HostSpec{Kind: KindSearchNode, IP: ip, Port: 1215, ListenKey: fmt.Sprintf("%s:1215", ip)}
		node := openft.NewNode(openft.Config{
			Class: class, Transport: mem,
			ListenAddr: spec.ListenKey, AdvertiseIP: ip, AdvertisePort: 1215,
			Alias:       fmt.Sprintf("search%d", i),
			MaxChildren: cfg.HonestUsers + 64,
			SearchTTL:   2,
		})
		if err := node.Start(); err != nil {
			return fail(err)
		}
		net_.SearchNodes = append(net_.SearchNodes, node)
		net_.add(node, spec)
	}
	if err := mesh(net_.SearchNodes); err != nil {
		return fail(err)
	}

	// addUser starts a USER node sharing lib and makes it a child of the
	// SEARCH node parent selects.
	addUser := func(spec *HostSpec, lib *p2p.Library, parent int) (*openft.Node, error) {
		node := openft.NewNode(openft.Config{
			Class: openft.ClassUser, Transport: mem,
			ListenAddr: spec.ListenKey, AdvertiseIP: spec.IP, AdvertisePort: spec.Port,
			Alias: "giFT/0.11.8", Library: lib,
		})
		if err := node.Start(); err != nil {
			return nil, err
		}
		if err := node.BecomeChildOf(net_.SearchNodes[parent%len(net_.SearchNodes)].Addr()); err != nil {
			node.Close()
			return nil, err
		}
		return node, nil
	}

	// Honest users. The factory is retained on the net for churn: fresh
	// users draw new addresses and new shared folders from the same
	// deterministic streams.
	corpus := gen.Corpus()
	termPick := stats.NewZipf(rng, workload.Skew, len(corpus))
	buildHonest := func(attachIdx int) (*openft.Node, *HostSpec, error) {
		ip, err := pubPool.Next()
		if err != nil {
			return nil, nil, err
		}
		lib := p2p.NewLibrary()
		for fidx := 0; fidx < userFiles; fidx++ {
			term := corpus[termPick.Next()]
			downloadable := rng.Bool(userDownloadableShare)
			if _, err := lib.Add(honestFile(term, rng.IntN(100), downloadable, rng)); err != nil {
				return nil, nil, err
			}
		}
		spec := &HostSpec{Kind: KindHonestUser, IP: ip, Port: 1216, ListenKey: fmt.Sprintf("%s:1216", ip)}
		node, err := addUser(spec, lib, attachIdx)
		if err != nil {
			return nil, nil, err
		}
		return node, spec, nil
	}
	net_.newHonest = buildHonest
	// wantShares is what a fully-formed SEARCH tier must report before
	// measurement may start.
	wantShares := 0
	for i := 0; i < cfg.HonestUsers; i++ {
		node, spec, err := buildHonest(i)
		if err != nil {
			return fail(err)
		}
		net_.addHonest(node, spec)
		wantShares += userFiles
	}

	// Infected users. The response-volume budget per family is its
	// catalog share of the total malicious budget; the total malicious
	// budget is set so malicious/(malicious+honest downloadable) ≈
	// maliciousShare. Expected honest downloadable hits per query:
	// users × files × Σp² × downloadableShare.
	var sumP2 float64
	for i := range corpus {
		p := gen.TermProbability(i)
		sumP2 += p * p
	}
	honestDownloadablePerQuery := float64(cfg.HonestUsers*userFiles) * sumP2 * userDownloadableShare
	maliciousBudget := honestDownloadablePerQuery * maliciousShare / (1 - maliciousShare)

	shares := cfg.Catalog.Shares()
	hostHints := cfg.Catalog.HostHints
	for _, f := range cfg.Catalog.Families {
		famMass := maliciousBudget * shares[f.Name]
		// Choose term ranks whose combined query probability supplies the
		// family's response budget. The top family takes top terms (it is
		// what users most often run into); tail families take the least
		// popular terms, where small budgets can be tracked accurately.
		var ranks []int
		if shares[f.Name] >= 0.5 {
			ranks = massAssignment(gen, 0, famMass)
		} else {
			ranks = massAssignmentDeep(gen, famMass)
		}
		if len(ranks) == 0 {
			continue
		}
		hosts := hostHints[f.Name]
		if hosts <= 0 {
			// Default: one host per infected file, so no tail family
			// accidentally becomes a superspreader.
			hosts = len(ranks)
		}
		// Distribute the infected files across the family's hosts.
		libs := make([]*p2p.Library, hosts)
		specs := make([]*HostSpec, hosts)
		for h := 0; h < hosts; h++ {
			ip, err := pubPool.Next()
			if err != nil {
				return fail(err)
			}
			libs[h] = p2p.NewLibrary()
			specs[h] = &HostSpec{Kind: KindInfectedUser, IP: ip, Port: 1216, Family: f,
				ListenKey: fmt.Sprintf("%s:1216", ip)}
		}
		for i, rank := range ranks {
			inf, err := infectedFile(f, i, corpus[rank])
			if err != nil {
				return fail(err)
			}
			if _, err := libs[i%hosts].Add(inf); err != nil {
				return fail(err)
			}
		}
		for h := 0; h < hosts; h++ {
			// Infected users share a little honest content too.
			for fidx := 0; fidx < 2; fidx++ {
				term := corpus[termPick.Next()]
				if _, err := libs[h].Add(honestFile(term, rng.IntN(100), false, rng)); err != nil {
					return fail(err)
				}
			}
			node, err := addUser(specs[h], libs[h], h)
			if err != nil {
				return fail(err)
			}
			net_.add(node, specs[h])
			wantShares += libs[h].Len()
		}
	}

	// BecomeChildOf returns once the parent accepts the child; the
	// ADDSHARE stream is applied by the parent's reader afterwards. Wait
	// until every share is searchable so measurement starts on a
	// fully-formed tier.
	wantChildren := len(net_.Specs) - len(net_.SearchNodes)
	if err := net_.settle("initial population", func(children, shares int) bool {
		return children >= wantChildren && shares >= wantShares
	}); err != nil {
		return fail(err)
	}

	return net_, nil
}
