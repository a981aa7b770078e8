// Package netsim synthesizes the simulated host populations for the two
// instrumented networks and orchestrates them as live protocol nodes over
// an in-memory transport.
//
// The populations are calibrated so the emergent measurement statistics
// match the paper's:
//
//   - LimeWire: a mesh of ultrapeers with honest leaves, a cohort of
//     query-echo malware responders sized so ~68% of downloadable
//     responses are malicious (28% of them advertising private addresses),
//     and a sprinkle of shared-folder tail infections;
//   - OpenFT: a small SEARCH/INDEX tier over honest USER hosts, with the
//     top virus served by a single host (67% of malicious responses) and a
//     malicious share of ~3% overall.
package netsim

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"net"

	"p2pmalware/internal/bufpool"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

// honestExtensions is the filename-extension mix of honest shared files:
// media (not downloadable in the paper's sense) and downloadable types.
var (
	honestMediaExts        = []string{".mp3", ".avi", ".wmv", ".mpg", ".jpg"}
	honestDownloadableExts = []string{".exe", ".zip"}
)

// honestFile builds one honest shared file named after a workload term.
// Downloadable honest files carry real (small) content so the instrumented
// client can download and scan them; media files carry lazy content that
// is never materialized.
func honestFile(term workload.Term, variant int, downloadable bool, rng *stats.RNG) *p2p.SharedFile {
	if downloadable {
		ext := honestDownloadableExts[rng.IntN(len(honestDownloadableExts))]
		name := fmt.Sprintf("%s pack %d%s", term.Text, variant, ext)
		// Deterministic clean content; size varies so honest downloadables
		// do not cluster at characteristic sizes the way malware does.
		size := 40960 + rng.IntN(200)*1024 + rng.IntN(1024)
		seed := rng.Uint64()
		return p2p.LazyFile(name, int64(size), func() ([]byte, error) {
			gen := stats.NewRNG(seed, 0x0C0FFEE)
			b := bufpool.GetSlab(size)
			gen.Fill(b)
			// Honest "executables" need not be valid PEs: the scanner
			// labels by signature, and the paper's downloadable set was
			// extension-defined. Keep a text marker for debuggability.
			copy(b, []byte("CLEANFILE"))
			return b, nil
		})
	}
	ext := honestMediaExts[rng.IntN(len(honestMediaExts))]
	name := fmt.Sprintf("%s %d%s", term.Text, variant, ext)
	size := int64(3_000_000 + rng.IntN(60_000_000))
	f := p2p.LazyFile(name, size, func() ([]byte, error) {
		return nil, fmt.Errorf("netsim: media content for %q is never materialized", name)
	})
	// Media is advertised (OpenFT share lists carry MD5s) but never
	// downloaded, so a deterministic synthetic hash suffices.
	sum := md5.Sum([]byte(fmt.Sprintf("media|%s|%d", name, size)))
	f.MD5 = hex.EncodeToString(sum[:])
	return f
}

// fakeFile builds a decoy: an enticing downloadable name and advertised
// size, but junk content of a different (small) true size. Fake files are
// clean — the scanner finds nothing — but their advertised metadata lies,
// the phenomenon follow-up work (e.g. the BitTorrent fake-content studies
// citing this paper) measured at scale.
func fakeFile(term workload.Term, variant int, rng *stats.RNG) *p2p.SharedFile {
	ext := honestDownloadableExts[rng.IntN(len(honestDownloadableExts))]
	name := fmt.Sprintf("%s full version %d%s", term.Text, variant, ext)
	advertised := int64(1_000_000 + rng.IntN(4_000_000))
	trueSize := 2048 + rng.IntN(4096)
	seed := rng.Uint64()
	f := p2p.LazyFile(name, advertised, func() ([]byte, error) {
		gen := stats.NewRNG(seed, 0xFA4E)
		b := bufpool.GetSlab(trueSize)
		gen.Fill(b)
		copy(b, []byte("DECOYFILE"))
		return b, nil
	})
	return f
}

// infectedFile builds a shared-folder infection: the family's specimen
// advertised under a query-term-derived name, so it matches real searches.
func infectedFile(f *malware.Family, variant int, term workload.Term) (*p2p.SharedFile, error) {
	name := fmt.Sprintf("%s full%s", term.Text, f.Container.Extension())
	return specimenFile(name, f, variant)
}

// specimenFile shares the family's variant specimen under name. Every host
// of one variant serves the same process-wide bytes and digests.
func specimenFile(name string, f *malware.Family, variant int) (*p2p.SharedFile, error) {
	s, err := f.Shared(variant)
	if err != nil {
		return nil, err
	}
	return p2p.StaticFileSums(name, s.Data, s.SHA1, s.MD5), nil
}

// massAssignment selects corpus term ranks (starting at fromRank) whose
// combined workload probability approximates targetMass, for pinning
// shared-folder infections to a response-volume budget. It returns the
// chosen ranks.
func massAssignment(gen *workload.Generator, fromRank int, targetMass float64) []int {
	var ranks []int
	var mass float64
	corpus := gen.Corpus()
	for rank := fromRank; rank < len(corpus) && mass < targetMass; rank++ {
		p := gen.TermProbability(rank)
		// Include the final term only when doing so lands closer to the
		// target than stopping short; this halves the systematic
		// overshoot of the greedy walk.
		if mass+p-targetMass > targetMass-mass {
			break
		}
		ranks = append(ranks, rank)
		mass += p
	}
	if len(ranks) == 0 && targetMass > 0 {
		ranks = append(ranks, fromRank)
	}
	return ranks
}

// massAssignmentDeep is massAssignment walking from the least popular term
// upward, which tracks small target masses much more accurately (the
// overshoot is bounded by the smallest term probabilities). Used for tail
// malware families whose response budgets are tiny.
func massAssignmentDeep(gen *workload.Generator, targetMass float64) []int {
	var ranks []int
	var mass float64
	corpus := gen.Corpus()
	for rank := len(corpus) - 1; rank >= 0 && mass < targetMass; rank-- {
		p := gen.TermProbability(rank)
		if mass+p-targetMass > targetMass-mass {
			break
		}
		ranks = append(ranks, rank)
		mass += p
	}
	if len(ranks) == 0 && targetMass > 0 {
		ranks = append(ranks, len(corpus)-1)
	}
	return ranks
}

// apportion splits n items across weights by largest remainder, so small
// weights round fairly. It returns per-weight counts summing to n.
func apportion(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	if total <= 0 || n <= 0 {
		return counts
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	// Distribute the remainder to the largest fractional parts.
	for assigned < n {
		best := -1
		for i := range rems {
			if best < 0 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

// HostKind labels a synthesized host for trace/debug purposes.
type HostKind string

// Host kinds.
const (
	KindUltrapeer    HostKind = "ultrapeer"
	KindHonestLeaf   HostKind = "honest-leaf"
	KindEchoMalware  HostKind = "echo-malware"
	KindTailInfected HostKind = "tail-infected"
	KindSearchNode   HostKind = "search-node"
	KindHonestUser   HostKind = "honest-user"
	KindInfectedUser HostKind = "infected-user"
)

// HostSpec describes one synthesized host.
type HostSpec struct {
	// Kind labels the host's role in the population.
	Kind HostKind
	// IP and Port are the advertised endpoint.
	IP   net.IP
	Port uint16
	// Firewalled marks hosts behind NAT (private advertised address,
	// unreachable directly).
	Firewalled bool
	// Family is the malware family for echo/infected hosts (nil
	// otherwise).
	Family *malware.Family
	// ListenKey is the in-memory transport bind key.
	ListenKey string
}

// Addr returns the advertised "ip:port" string.
func (h *HostSpec) Addr() string { return fmt.Sprintf("%s:%d", h.IP, h.Port) }
