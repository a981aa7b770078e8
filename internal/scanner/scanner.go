// Package scanner implements the signature-based malware scanner that
// stands in for the commercial antivirus engine the study used to label
// downloaded files.
//
// The engine supports two signature kinds — byte patterns and MD5 content
// hashes — and scans recursively into ZIP archives (bounded depth, bounded
// decompressed size) the way real AV engines do. Ground truth for the
// synthetic corpus comes from building the database out of the malware
// catalog's family signatures.
//
// All pattern signatures are compiled into a single Aho–Corasick automaton
// in New, so a scan makes one pass over each payload regardless of the
// signature count.
package scanner

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"p2pmalware/internal/archive"
	"p2pmalware/internal/malware"
)

// SigKind distinguishes signature types.
type SigKind int

const (
	// Pattern matches when the signature bytes appear anywhere in the
	// scanned stream.
	Pattern SigKind = iota
	// Hash matches when the MD5 of the whole scanned stream equals the
	// signature digest.
	Hash
)

// Signature is one database entry.
type Signature struct {
	// Family is the detection name reported on a match.
	Family string
	// Kind selects pattern or hash matching.
	Kind SigKind
	// Data is the pattern bytes (Kind == Pattern) or the 16-byte MD5
	// digest (Kind == Hash).
	Data []byte
}

// Detection is one scanner finding.
type Detection struct {
	// Family is the malware family name.
	Family string
	// Path locates the finding: "" for the top-level stream, otherwise
	// the archive member path(s), "/"-joined for nested archives.
	Path string
}

// Engine is a compiled signature database. Engines are immutable after
// construction and safe for concurrent use.
type Engine struct {
	patterns []Signature
	ac       *acMatcher
	hashes   map[[md5.Size]byte]string // digest -> family
	maxDepth int
}

// MaxArchiveDepth is how deep the engine recurses into nested archives.
const MaxArchiveDepth = 3

// New compiles a database from the given signatures.
func New(sigs []Signature) (*Engine, error) {
	e := &Engine{
		hashes:   make(map[[md5.Size]byte]string),
		maxDepth: MaxArchiveDepth,
	}
	for _, s := range sigs {
		if s.Family == "" {
			return nil, fmt.Errorf("scanner: signature with empty family")
		}
		switch s.Kind {
		case Pattern:
			if len(s.Data) < 4 {
				return nil, fmt.Errorf("scanner: pattern for %s too short (%d bytes)", s.Family, len(s.Data))
			}
			e.patterns = append(e.patterns, Signature{Family: s.Family, Kind: Pattern, Data: append([]byte(nil), s.Data...)})
		case Hash:
			if len(s.Data) != md5.Size {
				return nil, fmt.Errorf("scanner: hash for %s is %d bytes, want %d", s.Family, len(s.Data), md5.Size)
			}
			var d [md5.Size]byte
			copy(d[:], s.Data)
			e.hashes[d] = s.Family
		default:
			return nil, fmt.Errorf("scanner: unknown signature kind %d for %s", s.Kind, s.Family)
		}
	}
	pats := make([][]byte, len(e.patterns))
	for i := range e.patterns {
		pats[i] = e.patterns[i].Data
	}
	e.ac = newACMatcher(pats)
	return e, nil
}

// FromCatalogs builds the ground-truth engine for the synthetic corpus:
// one pattern signature per family (its embedded marker) plus one hash
// signature per variant specimen. Building and hashing the specimens is
// most of the cost and each is independent, so they are all built at
// once first; the signatures are then read from malware's process-wide
// specimen cache in catalog order, errors included.
func FromCatalogs(catalogs ...*malware.Catalog) (*Engine, error) {
	var wg sync.WaitGroup
	for _, c := range catalogs {
		for _, f := range c.Families {
			for v := 0; v < f.NumVariants(); v++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _ = f.Shared(v)
				}()
			}
		}
	}
	wg.Wait()
	var sigs []Signature
	for _, c := range catalogs {
		for _, f := range c.Families {
			sigs = append(sigs, Signature{Family: f.Name, Kind: Pattern, Data: f.Signature()})
			for v := 0; v < f.NumVariants(); v++ {
				s, err := f.Shared(v)
				if err != nil {
					return nil, fmt.Errorf("scanner: building %s variant %d: %w", f.Name, v, err)
				}
				sigs = append(sigs, Signature{Family: f.Name, Kind: Hash, Data: s.MD5[:]})
			}
		}
	}
	return New(sigs)
}

// NumSignatures returns the number of compiled signatures.
func (e *Engine) NumSignatures() int { return len(e.patterns) + len(e.hashes) }

// Scan inspects data (recursing into ZIP archives) and returns all
// detections, deduplicated by (family, path) and sorted for determinism.
// A scan error on a nested archive is not fatal: corrupt archives simply
// yield no nested detections, like a real engine skipping a broken file.
func (e *Engine) Scan(data []byte) []Detection {
	_, ds := e.ScanSum(data)
	return ds
}

// ScanSum scans like Scan and additionally returns the MD5 of data, so
// callers that also need the content identity (trace records) hash each
// payload exactly once.
func (e *Engine) ScanSum(data []byte) ([md5.Size]byte, []Detection) {
	start := time.Now()
	sum := md5.Sum(data)
	ds := e.scan(data, sum, e.maxDepth)
	met.bytesScanned.Add(int64(len(data)))
	met.scanDur.ObserveDuration(time.Since(start))
	met.detections.Add(int64(len(ds)))
	if len(ds) == 0 {
		met.scansClean.Inc()
		return sum, nil
	}
	met.scansInfected.Inc()
	return sum, ds
}

// Infected reports whether data contains any known malware, and the family
// of the first (alphabetically) detection if so.
func (e *Engine) Infected(data []byte) (string, bool) {
	ds := e.Scan(data)
	if len(ds) == 0 {
		return "", false
	}
	return ds[0].Family, true
}

// scan computes the verdict for data, whose MD5 is sum: hash-signature
// lookup, one automaton pass for every pattern signature, then recursion
// into archive members while budget, the remaining archive-recursion
// allowance, lasts. Member verdicts come back subtree-relative and are
// rebased under the member path here.
func (e *Engine) scan(data []byte, sum [md5.Size]byte, budget int) []Detection {
	var out []Detection
	if fam, ok := e.hashes[sum]; ok {
		out = append(out, Detection{Family: fam})
	}
	e.ac.match(data, func(pattern int32) {
		out = append(out, Detection{Family: e.patterns[pattern].Family})
	})
	if budget > 0 && archive.IsZip(data) {
		if members, err := archive.Extract(data); err == nil {
			for _, m := range members {
				for _, d := range e.scan(m.Data, md5.Sum(m.Data), budget-1) {
					p := m.Name
					if d.Path != "" {
						p = m.Name + "/" + d.Path
					}
					out = append(out, Detection{Family: d.Family, Path: p})
				}
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Path < out[j].Path
	})
	// Dedup after sorting: a family can match by hash and pattern at the
	// same path, or repeat across identical members.
	dedup := out[:1]
	for _, d := range out[1:] {
		if d != dedup[len(dedup)-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup
}

// HexSum renders an MD5 digest as lower-case hex, the content identity
// used in trace records, for callers that scanned via ScanSum and must
// not hash twice.
func HexSum(sum [md5.Size]byte) string {
	return hex.EncodeToString(sum[:])
}
