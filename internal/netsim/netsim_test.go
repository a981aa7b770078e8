package netsim

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"testing"
	"time"

	"p2pmalware/internal/ipaddr"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/scanner"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

func TestApportion(t *testing.T) {
	got := apportion(33, []float64{0.62, 0.31, 0.06})
	if got[0]+got[1]+got[2] != 33 {
		t.Fatalf("apportion sum = %v", got)
	}
	if got[0] < got[1] || got[1] < got[2] {
		t.Fatalf("apportion not monotone: %v", got)
	}
	if got[2] == 0 {
		t.Fatalf("small weight starved: %v", got)
	}
	zero := apportion(0, []float64{1, 2})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("apportion(0) nonzero")
	}
}

func TestMassAssignment(t *testing.T) {
	gen, _ := workload.NewGenerator(stats.NewRNG(1, 1), workload.DefaultCorpus(), 1.0)
	ranks := massAssignment(gen, 0, 0.3)
	var mass float64
	for _, r := range ranks {
		mass += gen.TermProbability(r)
	}
	if mass < 0.3 || mass > 0.55 {
		t.Fatalf("forward mass = %v", mass)
	}
	// The deep walk may stop just short of the target when that is closer
	// than overshooting; require closeness, not a lower bound.
	deep := massAssignmentDeep(gen, 0.02)
	var deepMass float64
	for _, r := range deep {
		deepMass += gen.TermProbability(r)
	}
	if deepMass < 0.015 || deepMass > 0.035 {
		t.Fatalf("deep mass = %v (ranks %v)", deepMass, deep)
	}
}

func TestBuildLimeWireStructure(t *testing.T) {
	net_, err := BuildLimeWire(LimeWireConfig{Seed: 1, Ultrapeers: 2, HonestLeaves: 10, EchoHosts: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()

	if len(net_.Ultrapeers) != 2 {
		t.Fatalf("ultrapeers = %d", len(net_.Ultrapeers))
	}
	kinds := map[HostKind]int{}
	privEcho, echo := 0, 0
	for _, s := range net_.Specs {
		kinds[s.Kind]++
		if s.Kind == KindEchoMalware {
			echo++
			if ipaddr.IsPrivate(s.IP) {
				privEcho++
				if !s.Firewalled {
					t.Error("private echo host not firewalled")
				}
			}
		}
	}
	if kinds[KindHonestLeaf] != 10 || kinds[KindEchoMalware] != 8 {
		t.Fatalf("kinds = %v", kinds)
	}
	if kinds[KindTailInfected] == 0 {
		t.Fatal("no tail-infected hosts")
	}
	// 28% of 8 echo hosts = 2.24 -> expect 2 private.
	if privEcho != 2 {
		t.Fatalf("private echo hosts = %d, want 2", privEcho)
	}
	// Echo family mix follows catalog weights: heaviest family most hosts.
	fams := map[string]int{}
	for _, s := range net_.Specs {
		if s.Kind == KindEchoMalware {
			fams[s.Family.Name]++
		}
	}
	if fams["W32.Sivex.A"] < fams["W32.Dulmer.B"] {
		t.Fatalf("family apportion wrong: %v", fams)
	}
	// All ultrapeers see their leaves; registration on the accepting side
	// completes asynchronously after Connect returns, so poll.
	want := kinds[KindHonestLeaf] + kinds[KindEchoMalware] + kinds[KindTailInfected]
	deadline := time.Now().Add(5 * time.Second)
	for {
		totalLeaves := 0
		for _, up := range net_.Ultrapeers {
			_, l := up.NumPeers()
			totalLeaves += l
		}
		if totalLeaves == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connected leaves = %d, want %d", totalLeaves, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hostKey is a host's kind, address and malware family.
func hostKey(s *HostSpec) string {
	fam := ""
	if s.Family != nil {
		fam = s.Family.Name
	}
	return fmt.Sprintf("%s/%s/%s", s.Kind, s.Addr(), fam)
}

// churner is a running universe of either network.
type churner interface {
	Churn(frac float64) (int, error)
	Close()
}

// TestBuildDeterministic builds each universe twice at one seed, then
// churns a quarter of each twin's honest hosts. The twins must list the
// same hosts in the same order after the build and again after the churn,
// servent IDs included on LimeWire.
func TestBuildDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (u churner, hosts func() []string)
	}{
		{"limewire", func(t *testing.T) (churner, func() []string) {
			u, err := BuildLimeWire(LimeWireConfig{Seed: 42, Ultrapeers: 2, HonestLeaves: 8, EchoHosts: 4})
			if err != nil {
				t.Fatal(err)
			}
			return u, func() []string {
				var out []string
				for i, s := range u.Specs {
					out = append(out, hostKey(s)+"/"+u.Nodes[i].ServentID().String())
				}
				return out
			}
		}},
		{"openft", func(t *testing.T) (churner, func() []string) {
			u, err := BuildOpenFT(OpenFTConfig{Seed: 42, SearchNodes: 2, HonestUsers: 8})
			if err != nil {
				t.Fatal(err)
			}
			return u, func() []string {
				var out []string
				for _, s := range u.Specs {
					out = append(out, hostKey(s))
				}
				return out
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, hostsA := tc.build(t)
			defer a.Close()
			b, hostsB := tc.build(t)
			defer b.Close()
			samePopulation(t, "build", hostsA(), hostsB())
			for _, u := range []churner{a, b} {
				if n, err := u.Churn(0.25); n != 2 || err != nil {
					t.Fatalf("churn replaced %d, %v; want 2", n, err)
				}
			}
			samePopulation(t, "churn", hostsA(), hostsB())
		})
	}
}

func samePopulation(t *testing.T, after string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("after %s: population sizes %d and %d", after, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("after %s: population diverged at %d: %s vs %s", after, i, a[i], b[i])
		}
	}
}

func TestBuildOpenFTStructure(t *testing.T) {
	net_, err := BuildOpenFT(OpenFTConfig{Seed: 1, SearchNodes: 2, HonestUsers: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()

	if len(net_.SearchNodes) != 2 {
		t.Fatalf("search nodes = %d", len(net_.SearchNodes))
	}
	kinds := map[HostKind]int{}
	ferroxHosts := 0
	for _, s := range net_.Specs {
		kinds[s.Kind]++
		if s.Kind == KindInfectedUser && s.Family.Name == "W32.Ferrox.A" {
			ferroxHosts++
		}
	}
	if kinds[KindHonestUser] != 10 {
		t.Fatalf("honest users = %d", kinds[KindHonestUser])
	}
	if kinds[KindInfectedUser] == 0 {
		t.Fatal("no infected users")
	}
	// The paper's superspreader: exactly one host serves the top virus.
	if ferroxHosts != 1 {
		t.Fatalf("Ferrox hosts = %d, want 1", ferroxHosts)
	}
}

func TestBuildOpenFTNoEchoFamiliesInCatalog(t *testing.T) {
	for _, f := range malware.OpenFTCatalog().Families {
		if f.Strategy == malware.QueryEcho {
			t.Fatalf("OpenFT catalog family %s uses query-echo", f.Name)
		}
	}
}

func TestHonestFileNaming(t *testing.T) {
	rng := stats.NewRNG(5, 5)
	term := workload.Term{Text: "photoshop", Category: workload.Software}
	dl := honestFile(term, 1, true, rng)
	if dl.Size <= 0 {
		t.Fatal("downloadable honest file empty")
	}
	body, err := dl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body.Bytes)) != dl.Size {
		t.Fatalf("lazy size mismatch: %d vs %d", len(body.Bytes), dl.Size)
	}
	media := honestFile(term, 2, false, rng)
	if _, err := media.Open(); err == nil {
		t.Fatal("media content materialized")
	}
	if media.Size < 1_000_000 {
		t.Fatalf("media size = %d", media.Size)
	}
}

func TestInfectedFileCarriesSpecimen(t *testing.T) {
	f := malware.LimeWireCatalog().Families[0]
	term := workload.Term{Text: "star wars episode", Category: workload.Movies}
	inf, err := infectedFile(f, 0, term)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Size != f.VariantSize(0) {
		t.Fatalf("infected size = %d", inf.Size)
	}
	body, _ := inf.Open()
	if int64(len(body.Bytes)) != f.VariantSize(0) {
		t.Fatal("specimen truncated")
	}
}

// specimenVariant returns the variant of f whose specimen is n bytes long.
func specimenVariant(t *testing.T, f *malware.Family, n int) int {
	t.Helper()
	for v := 0; v < f.NumVariants(); v++ {
		if f.VariantSize(v) == int64(n) {
			return v
		}
	}
	t.Fatalf("%s has no %d-byte variant", f.Name, n)
	return 0
}

// checkSpecimenFile checks that file serves a fresh build of its variant
// of f under that build's digests, and that it serves the same backing
// array as every earlier file of the variant, which shared records by
// family and variant. It reports whether the variant was seen before.
func checkSpecimenFile(t *testing.T, f *malware.Family, file *p2p.SharedFile, shared map[string]*byte) bool {
	t.Helper()
	body, err := file.Open()
	if err != nil {
		t.Fatal(err)
	}
	v := specimenVariant(t, f, len(body.Bytes))
	fresh, err := f.Specimen(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes, fresh) {
		t.Fatalf("%s variant %d: served bytes differ from a fresh build", f.Name, v)
	}
	if file.SHA1 != p2p.URNSHA1(fresh) || file.MD5 != scanner.HexSum(md5.Sum(fresh)) {
		t.Fatalf("%s variant %d: SHA1 %s / MD5 %s are not the bytes' digests", f.Name, v, file.SHA1, file.MD5)
	}
	key := fmt.Sprintf("%s/%d", f.Name, v)
	first, seen := shared[key]
	if !seen {
		shared[key] = &body.Bytes[0]
	} else if first != &body.Bytes[0] {
		t.Fatalf("%s variant %d: two hosts serve separate copies", f.Name, v)
	}
	return seen
}

// TestSpecimenHostsServeOneSharedBuild checks every echo host's and
// tail-infected host's specimen in a LimeWire universe against a fresh
// build, and that hosts of one variant share its bytes.
func TestSpecimenHostsServeOneSharedBuild(t *testing.T) {
	net_, err := BuildLimeWire(LimeWireConfig{Seed: 6, Ultrapeers: 2, HonestLeaves: 4, EchoHosts: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()
	shared := map[string]*byte{}
	checked, repeats := map[HostKind]int{}, 0
	for i, spec := range net_.Specs {
		if spec.Family == nil {
			continue
		}
		lib := net_.Nodes[i].Library()
		for idx := uint32(1); idx <= uint32(lib.Len()); idx++ {
			// Specimens are the static files; the lazy media beside
			// them carry no SHA1.
			if file := lib.Get(idx); file != nil && file.SHA1 != "" {
				if checkSpecimenFile(t, spec.Family, file, shared) {
					repeats++
				}
				checked[spec.Kind]++
			}
		}
	}
	if checked[KindEchoMalware] != 8 || checked[KindTailInfected] == 0 {
		t.Fatalf("checked specimens by host kind = %v", checked)
	}
	if repeats == 0 {
		t.Fatal("no two hosts share a variant; the sharing check never ran")
	}
}

// TestInfectedFilesShareSpecimens checks infectedFile, which both
// universes use, for every variant of both catalogs.
func TestInfectedFilesShareSpecimens(t *testing.T) {
	term := workload.Term{Text: "star wars episode", Category: workload.Movies}
	for _, c := range []*malware.Catalog{malware.LimeWireCatalog(), malware.OpenFTCatalog()} {
		shared := map[string]*byte{}
		for _, f := range c.Families {
			for v := 0; v < 2*f.NumVariants(); v++ {
				inf, err := infectedFile(f, v, term)
				if err != nil {
					t.Fatal(err)
				}
				if checkSpecimenFile(t, f, inf, shared) != (v >= f.NumVariants()) {
					t.Fatalf("%s variant %d: sharing does not follow the variant", f.Name, v)
				}
			}
		}
	}
}

func TestChurnHonest(t *testing.T) {
	net_, err := BuildLimeWire(LimeWireConfig{Seed: 3, Ultrapeers: 2, HonestLeaves: 20, EchoHosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()
	before := len(net_.honest)
	if before != 20 {
		t.Fatalf("live honest = %d", before)
	}
	oldAddrs := map[string]bool{}
	for _, s := range net_.Specs {
		if s.Kind == KindHonestLeaf {
			oldAddrs[s.Addr()] = true
		}
	}
	replaced, err := net_.Churn(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 5 {
		t.Fatalf("replaced = %d, want 5", replaced)
	}
	if got := len(net_.honest); got != 20 {
		t.Fatalf("live honest after churn = %d", got)
	}
	// Replacements get fresh addresses.
	fresh := 0
	for _, s := range net_.Specs[len(net_.Specs)-5:] {
		if s.Kind != KindHonestLeaf {
			t.Fatalf("replacement kind = %s", s.Kind)
		}
		if !oldAddrs[s.Addr()] {
			fresh++
		}
	}
	if fresh != 5 {
		t.Fatalf("fresh addresses = %d", fresh)
	}
	// Ultrapeers still carry the same number of leaves eventually.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, up := range net_.Ultrapeers {
			_, l := up.NumPeers()
			total += l
		}
		want := 20 + 4 + tailCount(net_)
		if total == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf count = %d, want %d", total, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func tailCount(n *LimeWireNet) int {
	c := 0
	for _, s := range n.Specs {
		if s.Kind == KindTailInfected {
			c++
		}
	}
	return c
}

func TestChurnHonestSettlesQRP(t *testing.T) {
	net_, err := BuildLimeWire(LimeWireConfig{Seed: 7, Ultrapeers: 2, HonestLeaves: 12, EchoHosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()
	want, _ := net_.registered()
	if _, err := net_.Churn(0.5); err != nil {
		t.Fatal(err)
	}
	// Churn promises a fully re-formed overlay on return: no poll here,
	// the counts must already be right.
	leaves, qrpReady := net_.registered()
	if leaves != want {
		t.Fatalf("leaf total immediately after churn = %d, want %d", leaves, want)
	}
	if qrpReady != want {
		t.Fatalf("QRP-ready leaves immediately after churn = %d, want %d", qrpReady, want)
	}
}

func TestChurnUsersOpenFT(t *testing.T) {
	net_, err := BuildOpenFT(OpenFTConfig{Seed: 5, SearchNodes: 2, HonestUsers: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()
	beforeChildren, beforeShares := net_.registered()
	if len(net_.honest) != 12 {
		t.Fatalf("live honest users = %d", len(net_.honest))
	}
	oldAddrs := map[string]bool{}
	for _, s := range net_.Specs {
		if s.Kind == KindHonestUser {
			oldAddrs[s.Addr()] = true
		}
	}
	replaced, err := net_.Churn(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 3 {
		t.Fatalf("replaced = %d, want 3", replaced)
	}
	if got := len(net_.honest); got != 12 {
		t.Fatalf("live honest after churn = %d", got)
	}
	// Churn promises a fully re-formed tier on return.
	children, shares := net_.registered()
	if children != beforeChildren {
		t.Fatalf("children after churn = %d, want %d", children, beforeChildren)
	}
	if shares != beforeShares {
		t.Fatalf("shares after churn = %d, want %d", shares, beforeShares)
	}
	fresh := 0
	for _, s := range net_.Specs[len(net_.Specs)-3:] {
		if s.Kind != KindHonestUser {
			t.Fatalf("replacement kind = %s", s.Kind)
		}
		if !oldAddrs[s.Addr()] {
			fresh++
		}
	}
	if fresh != 3 {
		t.Fatalf("fresh addresses = %d", fresh)
	}
}

func TestChurnZeroFrac(t *testing.T) {
	net_, err := BuildLimeWire(LimeWireConfig{Seed: 4, Ultrapeers: 1, HonestLeaves: 5, EchoHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()
	if n, err := net_.Churn(0); n != 0 || err != nil {
		t.Fatalf("zero churn = %d, %v", n, err)
	}
}

func TestFakeFile(t *testing.T) {
	rng := stats.NewRNG(9, 9)
	term := workload.Term{Text: "photoshop", Category: workload.Software}
	f := fakeFile(term, 1, rng)
	if f.Size < 1_000_000 {
		t.Fatalf("advertised size = %d", f.Size)
	}
	body, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body.Bytes)) == f.Size {
		t.Fatal("decoy content matches advertised size")
	}
	if len(body.Bytes) < 2048 || len(body.Bytes) > 8192 {
		t.Fatalf("true size = %d", len(body.Bytes))
	}
}

func TestBuildLimeWireWithFakeFiles(t *testing.T) {
	net_, err := BuildLimeWire(LimeWireConfig{Seed: 8, Ultrapeers: 1, HonestLeaves: 20,
		EchoHosts: 2, FakeFileShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer net_.Close()
	// At least one honest leaf must carry a decoy (advertised exe/zip
	// whose lazy content size differs). Sample libraries via downloads is
	// heavy; instead trust construction + the fakeFile unit test, and
	// just assert the build is sound.
	if len(net_.honest) != 20 {
		t.Fatalf("leaves = %d", len(net_.honest))
	}
}
