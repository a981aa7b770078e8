package scanner

import (
	"bytes"
	"crypto/md5"
	"sort"
	"testing"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/stats"
)

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := FromCatalogs(malware.LimeWireCatalog(), malware.OpenFTCatalog())
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// cleanMB is the clean payload of the throughput benchmarks: 1 MiB of
// seeded random bytes.
func cleanMB() []byte {
	data := make([]byte, 1<<20)
	stats.NewRNG(1, 1).Fill(data)
	return data
}

// BenchmarkScanCleanMB scans one clean MiB: MD5 plus one automaton pass.
func BenchmarkScanCleanMB(b *testing.B) {
	e := benchEngine(b)
	data := cleanMB()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bad := e.Infected(data); bad {
			b.Fatal("clean data detected")
		}
	}
}

// BenchmarkACMatch times the automaton alone over the engine's patterns:
// on clean random bytes, where the root skip carries the pass from one
// marker start byte to the next, and on one specimen.
func BenchmarkACMatch(b *testing.B) {
	e := benchEngine(b)
	spec, err := malware.LimeWireCatalog().Families[0].Specimen(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		data []byte
		hit  bool
	}{
		{"random-1MiB", cleanMB(), false},
		{"specimen", spec, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var hits int
			found := func(int32) { hits++ }
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits = 0
				e.ac.match(bc.data, found)
				if (hits > 0) != bc.hit {
					b.Fatalf("%d pattern hits, want hit=%v", hits, bc.hit)
				}
			}
		})
	}
}

// mdSum keeps BenchmarkMD5's result live.
var mdSum [md5.Size]byte

// BenchmarkMD5 times the other half of a scan: the content digest every
// scan computes for hash signatures and the record's body hash.
func BenchmarkMD5(b *testing.B) {
	data := cleanMB()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdSum = md5.Sum(data)
	}
}

func BenchmarkScanSpecimen(b *testing.B) {
	e := benchEngine(b)
	spec, err := malware.LimeWireCatalog().Families[0].Specimen(0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(spec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bad := e.Infected(spec); !bad {
			b.Fatal("specimen missed")
		}
	}
}

// legacyScan reproduces the pre-automaton engine verbatim — one
// bytes.Contains pass per pattern signature plus an MD5 per layer — as the
// baseline for the old-vs-new benchmark pair.
func legacyScan(e *Engine, data []byte) []Detection {
	found := make(map[Detection]bool)
	legacyScanInto(e, data, "", 0, found)
	out := make([]Detection, 0, len(found))
	for d := range found {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Path < out[j].Path
	})
	return out
}

func legacyScanInto(e *Engine, data []byte, path string, depth int, found map[Detection]bool) {
	d := md5.Sum(data)
	if fam, ok := e.hashes[d]; ok {
		found[Detection{Family: fam, Path: path}] = true
	}
	for _, s := range e.patterns {
		if bytes.Contains(data, s.Data) {
			found[Detection{Family: s.Family, Path: path}] = true
		}
	}
	if depth >= e.maxDepth || !archive.IsZip(data) {
		return
	}
	members, err := archive.Extract(data)
	if err != nil {
		return
	}
	for _, m := range members {
		sub := m.Name
		if path != "" {
			sub = path + "/" + m.Name
		}
		legacyScanInto(e, m.Data, sub, depth+1, found)
	}
}

// multiSigArchive builds the archive-bearing payload for the old-vs-new
// pair: several specimens from different families plus clean bulk, so the
// scan exercises many signatures across archive members.
func multiSigArchive(b *testing.B) []byte {
	b.Helper()
	cat := malware.LimeWireCatalog()
	pad := make([]byte, 256<<10)
	stats.NewRNG(3, 9).Fill(pad)
	members := []archive.Member{{Name: "pad.bin", Data: pad}}
	for i := 0; i < 4 && i < len(cat.Families); i++ {
		spec, err := cat.Families[i].Specimen(0)
		if err != nil {
			b.Fatal(err)
		}
		members = append(members, archive.Member{Name: cat.Families[i].Name + ".exe", Data: spec})
	}
	z, err := archive.BuildCompressed(members)
	if err != nil {
		b.Fatal(err)
	}
	return z
}

// BenchmarkScanMultiSigLegacy is the pre-automaton scanner on an
// archive-bearing multi-signature payload; BenchmarkScanMultiSigEngine is
// the shipping engine on the same bytes. Their ratio is the automaton's
// speedup.
func BenchmarkScanMultiSigLegacy(b *testing.B) {
	e := benchEngine(b)
	z := multiSigArchive(b)
	b.SetBytes(int64(len(z)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := legacyScan(e, z); len(ds) < 4 {
			b.Fatalf("legacy scan found %d detections, want >= 4", len(ds))
		}
	}
}

func BenchmarkScanMultiSigEngine(b *testing.B) {
	e := benchEngine(b)
	z := multiSigArchive(b)
	b.SetBytes(int64(len(z)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := e.Scan(z); len(ds) < 4 {
			b.Fatalf("engine scan found %d detections, want >= 4", len(ds))
		}
	}
}

func BenchmarkScanArchive(b *testing.B) {
	e := benchEngine(b)
	spec, _ := malware.LimeWireCatalog().Families[0].Specimen(0)
	z, err := archive.BuildCompressed([]archive.Member{
		{Name: "readme.txt", Data: []byte("hello")},
		{Name: "payload.exe", Data: spec},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(z)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bad := e.Infected(z); !bad {
			b.Fatal("archived specimen missed")
		}
	}
}
