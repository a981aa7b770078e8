package openft

import (
	"bufio"
	"bytes"
	"net"
	"strconv"
	"testing"
)

// TestReadPacketNeverReusesPayload is the openft buffer-reuse aliasing
// regression test: a packet held past its handler (the search-response
// relay queues the received packet on another session) must keep its
// payload bytes while the stream keeps being read — each ReadPacket must
// hand out a payload of its own, never a reader-owned buffer it will
// reuse.
func TestReadPacketNeverReusesPayload(t *testing.T) {
	const total = 64
	var wire bytes.Buffer
	want := make([]SearchResp, total)
	for i := range want {
		want[i] = SearchResp{
			ID: uint32(i), IP: net.IPv4(10, 0, 0, byte(i+1)), Port: uint16(1000 + i),
			Size: uint32(i * 100), MD5: "md5-" + strconv.Itoa(i), Path: "share " + strconv.Itoa(i) + ".exe",
		}
		if err := WritePacket(&wire, want[i].Encode()); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}

	br := bufio.NewReader(&wire) // exercises the readHeader fast path
	var held []*Packet
	for i := 0; i < total; i++ {
		p, err := ReadPacket(br)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if i%8 == 0 {
			held = append(held, p) // like a relayed response
		}
	}
	for j, p := range held {
		resp, err := ParseSearchResp(p.Payload)
		if err != nil {
			t.Fatalf("held packet %d corrupted: %v", j, err)
		}
		w := want[j*8]
		if resp.ID != w.ID || resp.MD5 != w.MD5 || resp.Path != w.Path || !resp.IP.Equal(w.IP) {
			t.Errorf("held packet %d = %+v, want %+v (payload aliased by a later read)", j, resp, w)
		}
	}
}

// TestWritePacketHeaderFraming pins the stack-header WritePacket to the
// wire format byte-for-byte, including the empty-payload frame.
func TestWritePacketHeaderFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePacket(&buf, &Packet{Cmd: CmdSearchReq, Payload: []byte{0xAB, 0xCD}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Bytes(), []byte{0x00, 0x02, 0x00, 0x09, 0xAB, 0xCD}; !bytes.Equal(got, want) {
		t.Fatalf("frame = %x, want %x", got, want)
	}
	buf.Reset()
	if err := WritePacket(&buf, &Packet{Cmd: CmdVersionReq}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Bytes(), []byte{0x00, 0x00, 0x00, 0x00}; !bytes.Equal(got, want) {
		t.Fatalf("empty frame = %x, want %x", got, want)
	}
}

// TestWriteToMatchesWritePacket holds the buffered writer path
// byte-identical to the unbuffered framer.
func TestWriteToMatchesWritePacket(t *testing.T) {
	pkts := []*Packet{
		{Cmd: CmdVersionReq},
		{Cmd: CmdSearchReq, Payload: []byte("hello\x00")},
		{Cmd: CmdStatsResp, Payload: bytes.Repeat([]byte{7}, 300)},
	}
	var direct, buffered bytes.Buffer
	bw := bufio.NewWriter(&buffered)
	for _, p := range pkts {
		if err := WritePacket(&direct, p); err != nil {
			t.Fatal(err)
		}
		if err := p.writeTo(bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), buffered.Bytes()) {
		t.Fatalf("writeTo diverges from WritePacket:\n%x\n%x", buffered.Bytes(), direct.Bytes())
	}
}
