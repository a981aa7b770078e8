package gnutella

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"testing/quick"

	"p2pmalware/internal/guid"
)

func TestPongRoundTrip(t *testing.T) {
	p := Pong{Port: 6346, IP: net.IPv4(10, 1, 2, 3), Files: 120, KB: 480000}
	got, err := ParsePong(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Port != p.Port || !got.IP.Equal(p.IP) || got.Files != p.Files || got.KB != p.KB {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

// TestTruncatedPayloadsRejected feeds every decoder a peer-supplied
// payload of each length below its minimum. Nothing in the program
// recovers from a panic, so a decoder that indexes past a short payload
// would take down the whole study or gnutellad; each must instead return
// an error wrapping ErrShortPayload.
func TestTruncatedPayloadsRejected(t *testing.T) {
	decoders := []struct {
		name  string
		min   int
		parse func([]byte) error
	}{
		{"pong", 14, func(b []byte) error { _, err := ParsePong(b); return err }},
		{"query", 3, func(b []byte) error { _, err := ParseQuery(b); return err }},
		{"query hit", 11 + guid.Size, func(b []byte) error { _, err := ParseQueryHit(b); return err }},
		{"push", 26, func(b []byte) error { _, err := ParsePush(b); return err }},
	}
	for _, d := range decoders {
		for n := 0; n < d.min; n++ {
			if err := d.parse(make([]byte, n)); !errors.Is(err, ErrShortPayload) {
				t.Errorf("%s of %d bytes: err = %v, want ErrShortPayload", d.name, n, err)
			}
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	cases := []Query{
		{MinSpeed: 0, Criteria: "britney spears"},
		{MinSpeed: 100, Criteria: "linux iso", Extensions: "urn:sha1:ABCDEFGH"},
		{MinSpeed: 0, Criteria: ""},
	}
	for _, q := range cases {
		got, err := ParseQuery(q.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip: %+v != %+v", got, q)
		}
	}
}

func TestQueryQuickRoundTrip(t *testing.T) {
	f := func(speed uint16, criteria string) bool {
		// Embedded nulls terminate the string on the wire; skip them.
		for _, b := range []byte(criteria) {
			if b == 0 {
				return true
			}
		}
		q := Query{MinSpeed: speed, Criteria: criteria}
		got, err := ParseQuery(q.Encode())
		return err == nil && got.Criteria == criteria && got.MinSpeed == speed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryHitRoundTrip(t *testing.T) {
	qh := QueryHit{
		Port:  6346,
		IP:    net.IPv4(192, 168, 1, 99),
		Speed: 1000,
		Hits: []Hit{
			{Index: 1, Size: 184342, Name: "britney_full.exe", Extensions: "urn:sha1:XYZ"},
			{Index: 7, Size: 999, Name: "readme.txt", Extensions: ""},
		},
		Vendor:    "LIME",
		Flags:     QHDPush,
		ServentID: guid.New(),
	}
	payload, err := qh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseQueryHit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Port != qh.Port || !got.IP.Equal(qh.IP) || got.Speed != qh.Speed {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Hits) != 2 {
		t.Fatalf("hits = %d", len(got.Hits))
	}
	for i := range qh.Hits {
		if got.Hits[i] != qh.Hits[i] {
			t.Fatalf("hit %d: %+v != %+v", i, got.Hits[i], qh.Hits[i])
		}
	}
	if got.Vendor != "LIME" {
		t.Fatalf("vendor = %q", got.Vendor)
	}
	if got.Flags&QHDPush == 0 {
		t.Fatal("push flag lost")
	}
	if got.ServentID != qh.ServentID {
		t.Fatal("servent ID lost")
	}
}

func TestQueryHitNoQHD(t *testing.T) {
	qh := QueryHit{Port: 1, IP: net.IPv4(1, 2, 3, 4), Hits: []Hit{{Index: 1, Size: 2, Name: "a.exe"}}, ServentID: guid.New()}
	payload, err := qh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseQueryHit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServentID != qh.ServentID {
		t.Fatal("servent ID lost without QHD")
	}
}

func TestQueryHitTooManyHits(t *testing.T) {
	qh := QueryHit{Hits: make([]Hit, 256), ServentID: guid.New()}
	if _, err := qh.Encode(); err == nil {
		t.Fatal("256 hits accepted")
	}
}

func TestQueryHitTruncated(t *testing.T) {
	qh := QueryHit{Port: 1, IP: net.IPv4(1, 2, 3, 4), Hits: []Hit{{Index: 1, Size: 2, Name: "file.exe"}}, ServentID: guid.New()}
	payload, _ := qh.Encode()
	for _, cut := range []int{5, 12, 15} {
		if _, err := ParseQueryHit(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestPushRoundTrip(t *testing.T) {
	p := Push{ServentID: guid.New(), Index: 42, IP: net.IPv4(5, 9, 0, 7), Port: 6347}
	got, err := ParsePush(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ServentID != p.ServentID || got.Index != p.Index || !got.IP.Equal(p.IP) || got.Port != p.Port {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

func TestByeRoundTrip(t *testing.T) {
	b := Bye{Code: 200, Reason: "shutting down"}
	p := b.Encode()
	// A bye is a little-endian code and a null-terminated reason.
	if len(p) < 3 || p[len(p)-1] != 0 {
		t.Fatalf("bye payload %q is not null-terminated", p)
	}
	got := Bye{Code: binary.LittleEndian.Uint16(p), Reason: string(p[2 : len(p)-1])}
	if got != b {
		t.Fatalf("round trip: %+v != %+v", got, b)
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgPing: "ping", MsgPong: "pong", MsgQuery: "query",
		MsgQueryHit: "query-hit", MsgPush: "push", MsgBye: "bye",
		MsgRouteTable: "route-table", MsgType(0x99): "type(0x99)",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", byte(ty), got, want)
		}
	}
}

func TestIPv6FallsBackToZero(t *testing.T) {
	p := Pong{Port: 1, IP: net.ParseIP("2001:db8::1")}
	got, err := ParsePong(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.IP.Equal(net.IPv4(0, 0, 0, 0)) {
		t.Fatalf("IPv6 encoded as %v", got.IP)
	}
}
