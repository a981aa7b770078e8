package scanner

import (
	"bytes"
	"crypto/md5"
	"testing"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/malware"
)

func groundTruth(t *testing.T) *Engine {
	t.Helper()
	e, err := FromCatalogs(malware.LimeWireCatalog(), malware.OpenFTCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDetectsEverySpecimen(t *testing.T) {
	e := groundTruth(t)
	for _, c := range []*malware.Catalog{malware.LimeWireCatalog(), malware.OpenFTCatalog()} {
		for _, f := range c.Families {
			for v := 0; v < f.NumVariants(); v++ {
				b, err := f.Specimen(v)
				if err != nil {
					t.Fatal(err)
				}
				fam, ok := e.Infected(b)
				if !ok {
					t.Fatalf("%s v%d not detected", f.Name, v)
				}
				if fam != f.Name {
					t.Fatalf("%s v%d detected as %s", f.Name, v, fam)
				}
			}
		}
	}
}

func TestCleanFilesNotDetected(t *testing.T) {
	e := groundTruth(t)
	clean := [][]byte{
		[]byte("just a text file"),
		bytes.Repeat([]byte{0xAA}, 100000),
		nil,
	}
	for i, b := range clean {
		if fam, ok := e.Infected(b); ok {
			t.Errorf("clean input %d detected as %s", i, fam)
		}
	}
}

func TestDetectsInsideArchive(t *testing.T) {
	e := groundTruth(t)
	f := malware.LimeWireCatalog().Families[0]
	spec, _ := f.Specimen(0)
	z, err := archive.Build([]archive.Member{
		{Name: "readme.txt", Data: []byte("enjoy")},
		{Name: "bad/payload.exe", Data: spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := e.Scan(z)
	if len(ds) == 0 {
		t.Fatal("specimen inside archive not detected")
	}
	var pathHit bool
	for _, d := range ds {
		if d.Family == f.Name && d.Path == "bad/payload.exe" {
			pathHit = true
		}
	}
	if !pathHit {
		t.Fatalf("detection path wrong: %+v", ds)
	}
}

func TestDetectsNestedArchives(t *testing.T) {
	e := groundTruth(t)
	f := malware.LimeWireCatalog().Families[0]
	spec, _ := f.Specimen(0)
	inner, _ := archive.Build([]archive.Member{{Name: "x.exe", Data: spec}})
	outer, _ := archive.Build([]archive.Member{{Name: "inner.zip", Data: inner}})
	ds := e.Scan(outer)
	var ok bool
	for _, d := range ds {
		if d.Family == f.Name && d.Path == "inner.zip/x.exe" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("nested detection missing: %+v", ds)
	}
}

func TestDepthLimit(t *testing.T) {
	e := groundTruth(t)
	f := malware.LimeWireCatalog().Families[0]
	spec, _ := f.Specimen(0)
	// Bury the specimen beyond MaxArchiveDepth using compressed layers so
	// the marker bytes are not visible to the top-level pattern scan.
	cur := spec
	for i := 0; i <= MaxArchiveDepth; i++ {
		cur, _ = archive.BuildCompressed([]archive.Member{{Name: "layer.zip", Data: cur}})
	}
	if _, ok := e.Infected(cur); ok {
		t.Fatal("detection beyond depth limit")
	}
	// One layer shallower, the engine must reach it.
	cur = spec
	for i := 0; i < MaxArchiveDepth; i++ {
		cur, _ = archive.BuildCompressed([]archive.Member{{Name: "layer.zip", Data: cur}})
	}
	if _, ok := e.Infected(cur); !ok {
		t.Fatal("detection at max depth failed")
	}
}

func TestCorruptArchiveIsSkippedNotFatal(t *testing.T) {
	e := groundTruth(t)
	junk := append([]byte("PK\x03\x04"), bytes.Repeat([]byte{1}, 50)...)
	if _, ok := e.Infected(junk); ok {
		t.Fatal("corrupt archive produced detection")
	}
}

func TestHashSignature(t *testing.T) {
	body := []byte("some exact content blob")
	d := md5.Sum(body)
	e, err := New([]Signature{{Family: "T.Exact", Kind: Hash, Data: d[:]}})
	if err != nil {
		t.Fatal(err)
	}
	if fam, ok := e.Infected(body); !ok || fam != "T.Exact" {
		t.Fatalf("hash sig miss: %v %v", fam, ok)
	}
	if _, ok := e.Infected(append(body, 'x')); ok {
		t.Fatal("hash sig matched modified content")
	}
}

func TestPatternSignature(t *testing.T) {
	e, err := New([]Signature{{Family: "T.Pat", Kind: Pattern, Data: []byte("EVIL-MARKER")}})
	if err != nil {
		t.Fatal(err)
	}
	host := append(bytes.Repeat([]byte{0}, 1000), []byte("xxEVIL-MARKERyy")...)
	if fam, ok := e.Infected(host); !ok || fam != "T.Pat" {
		t.Fatalf("pattern miss: %v %v", fam, ok)
	}
}

func TestNewRejectsBadSignatures(t *testing.T) {
	bad := [][]Signature{
		{{Family: "", Kind: Pattern, Data: []byte("abcdef")}},
		{{Family: "X", Kind: Pattern, Data: []byte("ab")}},
		{{Family: "X", Kind: Hash, Data: []byte("short")}},
		{{Family: "X", Kind: SigKind(9), Data: []byte("abcdef")}},
	}
	for i, sigs := range bad {
		if _, err := New(sigs); err == nil {
			t.Errorf("bad signature set %d accepted", i)
		}
	}
}

func TestScanDeterministicOrder(t *testing.T) {
	e, err := New([]Signature{
		{Family: "B.Fam", Kind: Pattern, Data: []byte("MARK1")},
		{Family: "A.Fam", Kind: Pattern, Data: []byte("MARK2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("xxMARK1yyMARK2zz")
	ds := e.Scan(data)
	if len(ds) != 2 || ds[0].Family != "A.Fam" || ds[1].Family != "B.Fam" {
		t.Fatalf("order wrong: %+v", ds)
	}
	// The result is the caller's own: mutating it must not change a later
	// scan of the same content.
	ds[0] = Detection{Family: "CLOBBERED", Path: "x"}
	if again := e.Scan(data); len(again) != 2 || again[0].Family != "A.Fam" {
		t.Fatalf("scan result aliases engine state: %+v", again)
	}
}

func TestMultipleFamiliesInOneArchive(t *testing.T) {
	e := groundTruth(t)
	cat := malware.LimeWireCatalog()
	s1, _ := cat.Families[0].Specimen(0)
	s2, _ := cat.Families[3].Specimen(0)
	z, _ := archive.Build([]archive.Member{
		{Name: "a.exe", Data: s1},
		{Name: "b.exe", Data: s2},
	})
	ds := e.Scan(z)
	fams := make(map[string]bool)
	for _, d := range ds {
		fams[d.Family] = true
	}
	if !fams[cat.Families[0].Name] || !fams[cat.Families[3].Name] {
		t.Fatalf("missing families: %+v", ds)
	}
}

func TestHexHash(t *testing.T) {
	h := HexHash([]byte("abc"))
	if h != "900150983cd24fb0d6963f7d28e17f72" {
		t.Fatalf("HexHash = %s", h)
	}
	if len(HexHash(nil)) != 32 {
		t.Fatal("HexHash(nil) wrong length")
	}
}

func TestNumSignatures(t *testing.T) {
	e := groundTruth(t)
	lw, of := malware.LimeWireCatalog(), malware.OpenFTCatalog()
	want := 0
	for _, c := range []*malware.Catalog{lw, of} {
		for _, f := range c.Families {
			want += 1 + f.NumVariants()
		}
	}
	if got := e.NumSignatures(); got != want {
		t.Fatalf("NumSignatures = %d, want %d", got, want)
	}
}
