package ipaddr

import (
	"math"
	"net"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		ip   string
		want Class
	}{
		{"8.8.8.8", Public},
		{"128.211.1.1", Public},
		{"10.0.0.1", Private},
		{"10.255.255.254", Private},
		{"172.16.0.1", Private},
		{"172.31.255.1", Private},
		{"172.32.0.1", Public},
		{"192.168.1.1", Private},
		{"192.169.0.1", Public},
		{"127.0.0.1", Loopback},
		{"127.255.0.1", Loopback},
		{"169.254.1.1", LinkLocal},
		{"0.1.2.3", Reserved},
		{"224.0.0.1", Reserved},
		{"240.0.0.1", Reserved},
		{"255.255.255.255", Reserved},
	}
	for _, c := range cases {
		ip := net.ParseIP(c.ip)
		if got := Classify(ip); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.ip, got, c.want)
		}
	}
}

func TestClassifyInvalid(t *testing.T) {
	if got := Classify(nil); got != Invalid {
		t.Errorf("Classify(nil) = %v, want Invalid", got)
	}
	if got := Classify(net.ParseIP("2001:db8::1")); got != Invalid {
		t.Errorf("Classify(v6) = %v, want Invalid", got)
	}
}

func TestClassString(t *testing.T) {
	if Public.String() != "public" || Private.String() != "private" {
		t.Error("class names wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class produced empty string")
	}
}

func TestParseV4(t *testing.T) {
	if _, err := ParseV4("1.2.3.4"); err != nil {
		t.Errorf("ParseV4 valid: %v", err)
	}
	for _, s := range []string{"", "notanip", "2001:db8::1"} {
		if _, err := ParseV4(s); err == nil {
			t.Errorf("ParseV4(%q) accepted", s)
		}
	}
}

func TestU32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return U32(FromU32(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU32NonV4(t *testing.T) {
	if U32(nil) != 0 {
		t.Error("U32(nil) != 0")
	}
	if U32(net.ParseIP("2001:db8::1")) != 0 {
		t.Error("U32(v6) != 0")
	}
}

func TestPoolAllocatesDistinct(t *testing.T) {
	p, err := NewPool("10.1.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Remaining(); got != 254 {
		t.Fatalf("Remaining = %d, want 254", got)
	}
	seen := make(map[string]bool)
	for i := 0; i < 254; i++ {
		ip, err := p.Next()
		if err != nil {
			t.Fatalf("Next #%d: %v", i, err)
		}
		s := ip.String()
		if seen[s] {
			t.Fatalf("duplicate address %s", s)
		}
		seen[s] = true
		if s == "10.1.0.0" || s == "10.1.0.255" {
			t.Fatalf("allocated network/broadcast address %s", s)
		}
	}
	if _, err := p.Next(); err == nil {
		t.Fatal("exhausted pool still allocating")
	}
}

func TestPoolRoundRobin(t *testing.T) {
	p, err := NewPool("10.1.0.0/24", "192.168.5.0/24")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Next()
	b, _ := p.Next()
	if a.To4()[0] == b.To4()[0] {
		t.Fatalf("round robin failed: %v then %v", a, b)
	}
}

func TestPoolErrors(t *testing.T) {
	if _, err := NewPool(); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPool("notacidr"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if _, err := NewPool("2001:db8::/64"); err == nil {
		t.Error("IPv6 range accepted")
	}
}

func TestMixedAllocatorTracksMix(t *testing.T) {
	ma, err := NewMixedAllocator(ClassMix{Public: 0.7, Private: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	var priv int
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		ip, err := ma.Next()
		if err != nil {
			t.Fatalf("Next #%d: %v", i, err)
		}
		if seen[ip.String()] {
			t.Fatalf("duplicate %v", ip)
		}
		seen[ip.String()] = true
		if IsPrivate(ip) {
			priv++
		}
	}
	got := float64(priv) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("private share = %.3f, want ~0.30", got)
	}
}

func TestMixedAllocatorPrefixTracksMix(t *testing.T) {
	// Any prefix of the stream should track the mix, not just the total.
	ma, err := NewMixedAllocator(ClassMix{Public: 0.5, Private: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var priv int
	for i := 1; i <= 100; i++ {
		ip, err := ma.Next()
		if err != nil {
			t.Fatal(err)
		}
		if IsPrivate(ip) {
			priv++
		}
		if i >= 10 {
			share := float64(priv) / float64(i)
			if share < 0.3 || share > 0.7 {
				t.Fatalf("after %d allocations private share %.2f drifted", i, share)
			}
		}
	}
}

func TestMixedAllocatorRejectsEmptyMix(t *testing.T) {
	if _, err := NewMixedAllocator(ClassMix{}); err == nil {
		t.Fatal("empty mix accepted")
	}
}
