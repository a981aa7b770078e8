package scanner

import (
	"bytes"
	"testing"
)

// TestMatchNoHitZeroAllocs pins the `// lint:hotpath` contract on the
// automaton step: scanning input that contains no pattern never touches
// the lazily allocated seen set, so the whole pass is allocation-free.
// allocheck rejects allocating constructs in match at the source level;
// this holds the no-hit path to zero at runtime, once for the
// byte-at-a-time loop and once for the root skip, whose patterns share
// one start byte as the engine's markers do and whose corpus is full of
// false starts that leave the root and fail back to it.
func TestMatchNoHitZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns [][]byte
		data     []byte
		rootByte int
	}{
		{
			name:     "per-byte",
			patterns: [][]byte{[]byte("abcd"), []byte("\x00\x01\x02\x03")},
			data:     bytes.Repeat([]byte("xyzw"), 1024),
			rootByte: -1,
		},
		{
			name:     "root-skip",
			patterns: [][]byte{[]byte("X-MW-MARKER[alpha]"), []byte("X-MW-MARKER[beta]")},
			data:     bytes.Repeat([]byte("clean X-MW-MARKEX bytes XX "), 256),
			rootByte: 'X',
		},
	} {
		m := newACMatcher(tc.patterns)
		if m.rootByte != tc.rootByte {
			t.Fatalf("%s: rootByte = %d, want %d", tc.name, m.rootByte, tc.rootByte)
		}
		found := func(int32) { t.Fatalf("%s: unexpected match in no-hit corpus", tc.name) }
		if n := testing.AllocsPerRun(100, func() {
			m.match(tc.data, found)
		}); n != 0 {
			t.Fatalf("%s: no-hit match allocs = %v, want 0", tc.name, n)
		}
	}
}
