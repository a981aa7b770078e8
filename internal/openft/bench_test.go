package openft

import (
	"bytes"
	"net"
	"testing"
)

func BenchmarkPacketWriteRead(b *testing.B) {
	p := SearchReq{ID: 42, TTL: 2, Query: "benchmark search query"}.Encode()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WritePacket(&buf, p); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadPacket(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchRespEncode(b *testing.B) {
	r := SearchResp{ID: 42, IP: net.IPv4(24, 16, 0, 1), Port: 1216, Size: 261632,
		MD5: "d41d8cd98f00b204e9800998ecf8427e", Path: "ferrox installer.exe"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Encode()
	}
}

func BenchmarkSearchRespParse(b *testing.B) {
	payload := SearchResp{ID: 42, IP: net.IPv4(24, 16, 0, 1), Port: 1216, Size: 261632,
		MD5: "d41d8cd98f00b204e9800998ecf8427e", Path: "ferrox installer.exe"}.Encode().Payload
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSearchResp(payload); err != nil {
			b.Fatal(err)
		}
	}
}
