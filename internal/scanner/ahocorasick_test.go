package scanner

import (
	"bytes"
	"sync"
	"testing"

	"p2pmalware/internal/malware"
	"p2pmalware/internal/stats"
)

// acPatternSet is one automaton shape the reference tests and the fuzz
// target check against bytes.Contains.
type acPatternSet struct {
	name     string
	patterns [][]byte
	// rootByte is the root-skip byte newACMatcher must choose, or -1
	// when several bytes leave the root and the skip must stay off.
	rootByte int
}

var acPatternSets = []acPatternSet{
	{
		// Overlap, shared prefixes and failure transitions, with several
		// start bytes.
		name: "mixed",
		patterns: [][]byte{
			[]byte("abcd"),
			[]byte("abce"),             // shared prefix with abcd
			[]byte("bcda"),             // overlaps a match of abcd
			[]byte("cdab"),             // forces failure-link traversal
			[]byte("aaaa"),             // self-overlapping
			[]byte("aaaaa"),            // superstring of aaaa
			[]byte("\x00\x01\x02\x03"), // binary
		},
		rootByte: -1,
	},
	{
		// The engine's shape: every pattern begins with the same byte, so
		// match skips from one X to the next.
		name: "one-start-byte",
		patterns: [][]byte{
			[]byte("X-MW-MARKER[alpha]"),
			[]byte("X-MW-MARKER[alphabet]"), // shares all of alpha but the ']'
			[]byte("X-MW-MARKER[beta]"),
			[]byte("XXXX"),   // a run of the start byte
			[]byte("X-MW-X"), // fails over to a non-root state on X
		},
		rootByte: 'X',
	},
	{
		// The same markers plus patterns that leave the root on other
		// bytes, including one inside the marker, so the skip stays off.
		name: "several-start-bytes",
		patterns: [][]byte{
			[]byte("X-MW-MARKER[alpha]"),
			[]byte("Y-MW-MARKER[alpha]"),
			[]byte("-MW-MARKER"),
			[]byte("XXXX"),
		},
		rootByte: -1,
	},
}

// acInputs exercises every pattern set: overlaps and shared prefixes for
// the mixed set; for the marker sets, input that ends on the start byte,
// runs of it, and false starts that fail partway through a marker.
var acInputs = [][]byte{
	nil,
	[]byte("abcd"),
	[]byte("abcdabce"),
	[]byte("xxabcdayy"), // abcd then bcda overlapping
	[]byte("aaaaaa"),
	[]byte("aaa"),
	[]byte("cdabcd"),
	bytes.Repeat([]byte("abc"), 100),
	append(bytes.Repeat([]byte{0}, 50), 1, 2, 3),
	[]byte("X"),
	[]byte("clean bytes then X"),
	[]byte("XXX"),
	[]byte("XXXXXXXXX"),
	[]byte("X-MW-MARKEX"),
	[]byte("X-MW-MARKEX-MW-MARKER[alpha]"),
	[]byte("X-MW-MARKER[alph"),
	[]byte("X-MW-X-MW-MARKER[beta]X"),
	[]byte("..XX-MW-MARKER[alphabet]..Y-MW-MARKER[alpha]"),
	[]byte("-MW-MARKER[beta]"),
}

// TestAutomatonMatchesContainsReference cross-checks the Aho–Corasick
// automaton against the bytes.Contains semantics it replaced, for every
// pattern set over every input, and pins where the root skip runs.
func TestAutomatonMatchesContainsReference(t *testing.T) {
	t.Parallel()
	for _, set := range acPatternSets {
		m := newACMatcher(set.patterns)
		if m.rootByte != set.rootByte {
			t.Errorf("%s: rootByte = %d, want %d", set.name, m.rootByte, set.rootByte)
		}
		for _, in := range acInputs {
			checkACMatch(t, set.name, m, set.patterns, in)
		}
	}
}

// checkACMatch reports every pattern on which the automaton and
// bytes.Contains disagree for in, and any pattern reported twice.
func checkACMatch(t *testing.T, set string, m *acMatcher, patterns [][]byte, in []byte) {
	t.Helper()
	got := make(map[int32]int)
	m.match(in, func(p int32) { got[p]++ })
	for pi, p := range patterns {
		n := got[int32(pi)]
		if n > 1 {
			t.Errorf("%s: input %q pattern %q reported %d times", set, in, p, n)
		}
		if want := bytes.Contains(in, p); (n > 0) != want {
			t.Errorf("%s: input %q pattern %q: automaton=%v contains=%v", set, in, p, n > 0, want)
		}
	}
}

// FuzzACMatch holds the automaton to bytes.Contains on arbitrary input,
// for the fixed pattern sets and for a set the fuzzer chooses: pats split
// on newlines, empty patterns dropped, capped at 64 bytes so each build
// stays small.
func FuzzACMatch(f *testing.F) {
	for i, in := range acInputs {
		f.Add([]byte(nil), in)
		f.Add(bytes.Join(acPatternSets[i%len(acPatternSets)].patterns, []byte("\n")), in)
	}
	f.Add([]byte("Q\nQQ\nQR"), []byte("QQQRQ"))
	fixed := make([]*acMatcher, len(acPatternSets))
	for i, set := range acPatternSets {
		fixed[i] = newACMatcher(set.patterns)
	}
	f.Fuzz(func(t *testing.T, pats, data []byte) {
		for i, set := range acPatternSets {
			checkACMatch(t, set.name, fixed[i], set.patterns, data)
		}
		if len(pats) > 64 {
			pats = pats[:64]
		}
		var own [][]byte
		for _, p := range bytes.Split(pats, []byte("\n")) {
			if len(p) > 0 {
				own = append(own, p)
			}
		}
		checkACMatch(t, "fuzzed", newACMatcher(own), own, data)
	})
}

// TestAutomatonAgainstCatalogCorpus fuzzes the full catalog-built automaton
// against the reference loop on random data with specimens spliced in.
func TestAutomatonAgainstCatalogCorpus(t *testing.T) {
	t.Parallel()
	e := groundTruth(t)
	rng := stats.NewRNG(7, 7)
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 4096)
		rng.Fill(data)
		if trial%2 == 0 {
			// Splice a real signature into the noise.
			sig := e.patterns[trial%len(e.patterns)].Data
			copy(data[trial*100:], sig)
		}
		got := make(map[string]bool)
		e.ac.match(data, func(p int32) { got[e.patterns[p].Family] = true })
		for _, s := range e.patterns {
			if want := bytes.Contains(data, s.Data); got[s.Family] != want {
				t.Fatalf("trial %d family %s: automaton=%v contains=%v",
					trial, s.Family, got[s.Family], want)
			}
		}
	}
}

// TestScanConcurrent hammers one engine from many goroutines; run with
// -race it checks that a scan only reads the compiled database.
func TestScanConcurrent(t *testing.T) {
	t.Parallel()
	e := groundTruth(t)
	cat := malware.LimeWireCatalog()
	specs := make([][]byte, 0, len(cat.Families))
	for _, f := range cat.Families {
		s, err := f.Specimen(0)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	clean := bytes.Repeat([]byte("benign content "), 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := specs[(g+i)%len(specs)]
				if _, ok := e.Infected(s); !ok {
					t.Errorf("goroutine %d iter %d: specimen missed", g, i)
					return
				}
				if _, ok := e.Infected(clean); ok {
					t.Errorf("goroutine %d iter %d: clean flagged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
