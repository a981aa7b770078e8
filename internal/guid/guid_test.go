package guid

import (
	"strings"
	"testing"
)

func TestNewIsModern(t *testing.T) {
	for i := 0; i < 64; i++ {
		g := New()
		if !g.IsModern() {
			t.Fatalf("New() = %v, not modern-marked", g)
		}
		if g.IsZero() {
			t.Fatalf("New() returned zero GUID")
		}
	}
}

func TestNewUnique(t *testing.T) {
	seen := make(map[GUID]bool)
	for i := 0; i < 1000; i++ {
		g := New()
		if seen[g] {
			t.Fatalf("duplicate GUID %v after %d draws", g, i)
		}
		seen[g] = true
	}
}

func TestRoundTripBytes(t *testing.T) {
	g := New()
	g2, err := FromBytes(g[:])
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if g != g2 {
		t.Fatalf("round trip mismatch: %v != %v", g, g2)
	}
}

func TestFromBytesBadLength(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 32} {
		if _, err := FromBytes(make([]byte, n)); err != ErrBadLength {
			t.Errorf("FromBytes(len %d) err = %v, want ErrBadLength", n, err)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	g := New()
	s := g.String()
	if len(s) != 32 {
		t.Fatalf("String len = %d, want 32", len(s))
	}
	if s != strings.ToLower(s) {
		t.Fatalf("String not lower-case: %q", s)
	}
	g2, err := FromString(s)
	if err != nil {
		t.Fatalf("FromString: %v", err)
	}
	if g != g2 {
		t.Fatalf("round trip mismatch")
	}
}

func TestFromStringErrors(t *testing.T) {
	if _, err := FromString("abcd"); err != ErrBadLength {
		t.Errorf("short string err = %v, want ErrBadLength", err)
	}
	if _, err := FromString(strings.Repeat("zz", 16)); err == nil {
		t.Errorf("non-hex string accepted")
	}
}

func TestZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if New().IsZero() {
		t.Fatal("New().IsZero() = true")
	}
}

func TestNewFromRandDeterministic(t *testing.T) {
	mk := func() GUID {
		i := byte(0)
		return NewFromRand(func(p []byte) (int, error) {
			for j := range p {
				p[j] = i
				i++
			}
			return len(p), nil
		})
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatal("NewFromRand not deterministic for identical sources")
	}
	if !a.IsModern() {
		t.Fatal("NewFromRand result not modern-marked")
	}
}
