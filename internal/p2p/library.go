package p2p

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/base32"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"unicode"
	"unicode/utf8"

	"p2pmalware/internal/bufpool"
)

// SharedFile is one file in a servent's shared folder.
type SharedFile struct {
	// Index is the servent-local file index (Gnutella query hits carry
	// it; downloads reference it).
	Index uint32
	// Name is the advertised filename.
	Name string
	// Size is the byte size.
	Size int64
	// SHA1 is the content hash, as a urn:sha1 base32 string (HUGE spec).
	SHA1 string
	// MD5 is the hex MD5 content hash used by OpenFT share lists. It may
	// be precomputed so lazy files can be advertised without
	// materializing their content.
	MD5 string
	// body yields the file's bytes for one use. The constructor sets it,
	// and with it who owns the bytes (see Open).
	body func() (Body, error)
}

// Body is a shared file's bytes, lent out for one use by Open.
type Body struct {
	Bytes []byte
	// release takes the bytes back; nil for bytes that stay shared.
	release func([]byte)
}

// Release ends the use: a lazy file's bytes go back to the buffer pool,
// a static file's stay shared. Call it at most once, and do not touch
// Bytes afterwards. A caller that keeps the bytes never calls it and
// leaves them to the garbage collector.
func (b Body) Release() {
	if b.release != nil {
		b.release(b.Bytes)
	}
}

// Open returns the file's bytes for one use. A StaticFile's bytes are
// shared by every use; a LazyFile's are generated for this use alone and
// come with their release.
func (f *SharedFile) Open() (Body, error) { return f.body() }

// URNSHA1 computes the HUGE-style urn:sha1 identifier of data: base32
// (no padding) of the SHA1 digest.
func URNSHA1(data []byte) string { return sha1URN(sha1.Sum(data)) }

func sha1URN(d [sha1.Size]byte) string {
	return "urn:sha1:" + base32.StdEncoding.WithPadding(base32.NoPadding).EncodeToString(d[:])
}

// Keywords tokenizes a filename or query string into lower-case keywords:
// runs of letters and digits, minimum two runes, deduplicated in order of
// first appearance. Both protocol stacks and the workload generator share
// this definition, mirroring how servents normalized QRP keywords.
func Keywords(s string) []string {
	return AppendKeywords(nil, s)
}

// AppendKeywords appends the keywords of s to dst and returns it. Words
// that are already lower-case alias s instead of copying, and the scratch
// space for words that need lowering lives on the stack, so query matching
// can tokenize without allocating when dst has capacity. Deduplication is
// scoped to the words of s, not to anything already in dst.
func AppendKeywords(dst []string, s string) []string {
	base := len(dst)
	var scratchBuf [64]byte
	scratch := scratchBuf[:0]
	start := -1     // byte offset of the current word in s, -1 = none
	copied := false // current word differs from s[start:...] once lowered
	wlen := 0       // rune (== byte, words are ASCII) length of the word
	for i, r := range s {
		lr := r
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			// keyword rune, already lower-case
		case r >= 'A' && r <= 'Z':
			lr = r + ('a' - 'A')
		case r >= utf8.RuneSelf:
			// A handful of non-ASCII runes lower to ASCII (e.g. the
			// Kelvin sign); everything else separates, exactly as the
			// strings.ToLower pre-pass used to behave.
			lr = unicode.ToLower(r)
			if !(lr >= 'a' && lr <= 'z' || lr >= '0' && lr <= '9') {
				lr = -1
			}
		default:
			lr = -1 // separator
		}
		if lr >= 0 {
			if start < 0 {
				start, copied, wlen = i, false, 0
				scratch = scratch[:0]
			}
			wlen++
			if lr != r {
				if !copied {
					scratch = append(scratch[:0], s[start:i]...)
					copied = true
				}
				scratch = append(scratch, byte(lr))
			} else if copied {
				scratch = append(scratch, byte(r))
			}
			continue
		}
		if start >= 0 {
			dst = appendWord(dst, base, s[start:i], scratch, copied, wlen)
			start = -1
		}
	}
	if start >= 0 {
		dst = appendWord(dst, base, s[start:], scratch, copied, wlen)
	}
	return dst
}

// appendWord appends one tokenized word to dst unless it is too short or
// already present in dst[base:]. The word is s-aliasing raw unless copied,
// in which case scratch holds its lowered bytes.
func appendWord(dst []string, base int, raw string, scratch []byte, copied bool, wlen int) []string {
	if wlen < 2 {
		return dst
	}
	if copied {
		for _, w := range dst[base:] {
			if w == string(scratch) {
				return dst
			}
		}
		return append(dst, string(scratch))
	}
	for _, w := range dst[base:] {
		if w == raw {
			return dst
		}
	}
	return append(dst, raw)
}

// MatchesAllKeywords reports whether every keyword in kws appears among the
// keywords of name — the AND semantics both protocol stacks apply. kws must
// already be tokenized (lower-case); an empty kws never matches. Tokenizing
// the query once and probing many names through this avoids re-tokenizing
// the query per candidate.
func MatchesAllKeywords(name string, kws []string) bool {
	if len(kws) == 0 {
		return false
	}
	var buf [16]string
	nameKws := AppendKeywords(buf[:0], name)
	for _, kw := range kws {
		found := false
		for _, nk := range nameKws {
			if nk == kw {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Library is a keyword-indexed shared folder. It is safe for concurrent
// use: population churn adds and removes files while query handling reads.
type Library struct {
	mu        sync.RWMutex
	files     map[uint32]*SharedFile     // guarded by mu
	byKeyword map[string]map[uint32]bool // guarded by mu
	nextIndex uint32                     // guarded by mu
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{
		files:     make(map[uint32]*SharedFile),
		byKeyword: make(map[string]map[uint32]bool),
	}
}

// Add indexes a file and assigns it a servent-local index, which it
// returns. The file's Index field is set. The file must come from one of
// the constructors (StaticFile, StaticFileSums, LazyFile).
func (l *Library) Add(f *SharedFile) (uint32, error) {
	if f == nil || f.body == nil {
		return 0, fmt.Errorf("p2p: library add with nil file or data")
	}
	if f.Name == "" {
		return 0, fmt.Errorf("p2p: library add with empty name")
	}
	// Names can originate from hostile query text (query-echo malware
	// advertises under whatever terms it just heard), so the library never
	// indexes a raw name.
	f.Name = SanitizeFilename(f.Name)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextIndex++
	f.Index = l.nextIndex
	l.files[f.Index] = f
	for _, kw := range Keywords(f.Name) {
		set, ok := l.byKeyword[kw]
		if !ok {
			set = make(map[uint32]bool)
			l.byKeyword[kw] = set
		}
		set[f.Index] = true
	}
	return f.Index, nil
}

// Remove drops the file with the given index.
func (l *Library) Remove(index uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[index]
	if !ok {
		return
	}
	delete(l.files, index)
	for _, kw := range Keywords(f.Name) {
		if set, ok := l.byKeyword[kw]; ok {
			delete(set, index)
			if len(set) == 0 {
				delete(l.byKeyword, kw)
			}
		}
	}
}

// Get returns the file with the given index, or nil.
func (l *Library) Get(index uint32) *SharedFile {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.files[index]
}

// FindBySHA1 returns the first file whose SHA1 URN equals urn, or nil.
// Files with an empty SHA1 (every lazy file) never match.
func (l *Library) FindBySHA1(urn string) *SharedFile {
	if urn == "" {
		return nil
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	var best *SharedFile
	for _, f := range l.files {
		if f.SHA1 == urn && (best == nil || f.Index < best.Index) {
			best = f
		}
	}
	return best
}

// Len returns the number of shared files.
func (l *Library) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.files)
}

// Match returns the files matching a query: every query keyword must
// appear among the file's name keywords (the AND semantics Gnutella
// servents implemented). Results are sorted by index for determinism and
// capped at limit (limit <= 0 means no cap).
func (l *Library) Match(query string, limit int) []*SharedFile {
	var kwBuf [16]string
	kws := AppendKeywords(kwBuf[:0], query)
	if len(kws) == 0 {
		return nil
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	// Start from the rarest keyword's posting set.
	var base map[uint32]bool
	for _, kw := range kws {
		set := l.byKeyword[kw]
		if len(set) == 0 {
			return nil
		}
		if base == nil || len(set) < len(base) {
			base = set
		}
	}
	var out []*SharedFile
	for idx := range base {
		f := l.files[idx]
		if f == nil {
			continue
		}
		// The posting sets already index every keyword of every name, so
		// AND-matching is pure set membership — no re-tokenizing the name
		// per candidate.
		all := true
		for _, kw := range kws {
			if !l.byKeyword[kw][idx] {
				all = false
				break
			}
		}
		if all {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// AllKeywords returns the sorted set of indexed keywords; Gnutella QRP
// tables are built from it.
func (l *Library) AllKeywords() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.byKeyword))
	for kw := range l.byKeyword {
		out = append(out, kw)
	}
	sort.Strings(out)
	return out
}

// StaticFile builds a SharedFile that serves the given bytes, with Size
// and SHA1 precomputed. The bytes are shared by every use and never reach
// a buffer pool.
func StaticFile(name string, data []byte) *SharedFile {
	return staticFile(name, data, URNSHA1(data), "")
}

// StaticFileSums is StaticFile for bytes whose SHA1 and MD5 digests the
// caller already has, as for a malware specimen shared by many hosts: it
// hashes nothing, and OpenFT's share list takes the MD5 from it.
func StaticFileSums(name string, data []byte, sha1Sum [sha1.Size]byte, md5Sum [md5.Size]byte) *SharedFile {
	return staticFile(name, data, sha1URN(sha1Sum), hex.EncodeToString(md5Sum[:]))
}

func staticFile(name string, data []byte, urn, md5Hex string) *SharedFile {
	return &SharedFile{
		Name: name,
		Size: int64(len(data)),
		SHA1: urn,
		MD5:  md5Hex,
		body: func() (Body, error) { return Body{Bytes: data}, nil },
	}
}

// LazyFile builds a SharedFile of a known size whose bytes gen produces on
// each use; simulated populations use this to avoid materializing
// terabytes of synthetic content. gen must return bytes no one else holds,
// drawn from bufpool.GetSlab: each use hands them back to the pool when it
// is done. The SHA1 field stays empty: filling it in once the bytes exist
// would put URNs into later query hits and so change the study's records.
func LazyFile(name string, size int64, gen func() ([]byte, error)) *SharedFile {
	return &SharedFile{Name: name, Size: size, body: func() (Body, error) {
		b, err := gen()
		if err != nil {
			return Body{}, err
		}
		return Body{Bytes: b, release: bufpool.PutSlab}, nil
	}}
}
