package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// checkAppendRecord holds AppendRecord to json.Marshal for r: the same
// bytes when encoding/json succeeds, an error and dst untouched when it
// fails.
func checkAppendRecord(t *testing.T, r *ResponseRecord) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	prefix := []byte("prefix")
	got, err := AppendRecord(append([]byte(nil), prefix...), r)
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("json.Marshal failed (%v), AppendRecord did not: %s", wantErr, got)
	case wantErr == nil && err != nil:
		t.Fatalf("AppendRecord failed (%v), json.Marshal did not: %s", err, want)
	case err != nil:
		if !bytes.Equal(got, prefix) {
			t.Fatalf("AppendRecord failed but changed dst: %q", got)
		}
	case !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix):
		t.Fatalf("AppendRecord mismatch\n got: %s\nwant: %s", got[len(prefix):], want)
	}
}

// TestAppendRecordMatchesGoldenRecords re-encodes every record line of the
// study's golden record files: AppendRecord must reproduce the line and
// agree with json.Marshal.
func TestAppendRecordMatchesGoldenRecords(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "golden", "*_records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden record files found")
	}
	var lines int
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		sc.Scan() // header
		for sc.Scan() {
			var r ResponseRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkAppendRecord(t, &r)
			got, err := AppendRecord(nil, &r)
			if err != nil || !bytes.Equal(got, sc.Bytes()) {
				t.Fatalf("%s: re-encoded line differs (err %v)\n got: %s\nwant: %s", path, err, got, sc.Bytes())
			}
			lines++
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		f.Close()
	}
	if lines == 0 {
		t.Fatal("golden record files held no records")
	}
}

// TestAppendRecordOmitEmptyCombinations sets and clears each omitempty
// field independently, all 2^9 combinations, each under all four values
// of the two always-present flags.
func TestAppendRecordOmitEmptyCombinations(t *testing.T) {
	base := time.Date(2006, 3, 1, 7, 30, 0, 123456789, time.UTC)
	for mask := 0; mask < 1<<11; mask++ {
		on := func(bit int) bool { return mask&(1<<bit) != 0 }
		r := ResponseRecord{
			Time: base, Network: OpenFT, Query: "q", QueryCategory: "c",
			Filename: "f.exe", Size: 1, SourceIP: "1.2.3.4", SourcePort: 1216,
			SourceClass:  "public",
			Downloadable: on(9), Downloaded: on(10),
		}
		if on(0) {
			r.ServentID = "sid"
		}
		if on(1) {
			r.ContentID = "urn:sha1:X"
		}
		if on(2) {
			r.Vendor = "LIME"
		}
		if on(3) {
			r.PushFlagged = true
		}
		if on(4) {
			r.DownloadError = "timeout"
		}
		if on(5) {
			r.AltSource = "5.6.7.8:6346"
		}
		if on(6) {
			r.BodyHash = "cafe"
		}
		if on(7) {
			r.BodySize = -2
		}
		if on(8) {
			r.Malware = "W32.Sivex.A"
		}
		checkAppendRecord(t, &r)
	}
}

// TestAppendRecordTimeErrors: where Time.MarshalJSON refuses a time — a
// year outside [0,9999], a zone hour outside [0,23] — AppendRecord must
// refuse it too, and WriteJSONL must report the record.
func TestAppendRecordTimeErrors(t *testing.T) {
	for _, tm := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(2006, 3, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2006, 3, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
	} {
		r := ResponseRecord{Time: tm, Network: LimeWire}
		if _, err := json.Marshal(&r); err == nil {
			t.Fatalf("json.Marshal accepted %v; the case tests nothing", tm)
		}
		checkAppendRecord(t, &r)
		tr := NewTrace()
		tr.Add(r)
		if err := tr.WriteJSONL(&bytes.Buffer{}); err == nil {
			t.Fatalf("WriteJSONL accepted a record at %v", tm)
		}
	}
	// The edges of the accepted range, in and out of UTC.
	for _, tm := range []time.Time{
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2006, 3, 1, 0, 0, 0, 0, time.FixedZone("", 23*3600+59*60)),
		time.Date(2006, 3, 1, 0, 0, 0, 0, time.FixedZone("", -(5*3600+30*60+7))),
	} {
		checkAppendRecord(t, &ResponseRecord{Time: tm, Network: LimeWire})
	}
}

// TestAppendRecordZeroAlloc pins AppendRecord at zero allocations when
// the destination already has room for the line.
func TestAppendRecordZeroAlloc(t *testing.T) {
	r := sampleTrace().Records[0]
	r.DownloadError = "escapes <&> \u2028\u2029 \x01 \xff"
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendRecord(buf[:0], &r)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRecord allocated %v per run, want 0", allocs)
	}
}

// FuzzAppendRecord holds AppendRecord to json.Marshal over arbitrary
// string fields (invalid UTF-8, HTML-significant bytes, U+2028/U+2029,
// control bytes), numbers, flags and times, including times encoding/json
// refuses.
func FuzzAppendRecord(f *testing.F) {
	f.Add("limewire", "britney <spears> & co", "\xff\xfe bad utf8", "  ", "\x00\x1f\t\n\"\\", int64(184342), uint16(0x1ff), int64(1141171200), int32(0), int32(0))
	f.Add("", "", "", "", "", int64(0), uint16(0), int64(0), int32(0), int32(0))
	f.Add("openft", "q", "é€😀", "\x7f", "</script>", int64(-1), uint16(0), int64(253402300800), int32(1), int32(86400))
	f.Fuzz(func(t *testing.T, s1, s2, s3, s4, s5 string, size int64, flags uint16, sec int64, nsec, offset int32) {
		on := func(bit int) bool { return flags&(1<<bit) != 0 }
		r := ResponseRecord{
			Time:    time.Unix(sec, int64(nsec)).In(time.FixedZone(s5, int(offset))),
			Network: Network(s1), Query: s2, QueryCategory: s3, Filename: s4,
			Size: size, SourceIP: s5, SourcePort: uint16(size),
			SourceClass: s1, ServentID: s2, ContentID: s3, Vendor: s4,
			PushFlagged: on(0), Downloadable: on(1), Downloaded: on(2),
			DownloadError: s5, AltSource: s1, BodyHash: s2, Malware: s3,
		}
		if on(3) {
			r.BodySize = size
		}
		if on(4) {
			r.ServentID, r.Vendor, r.AltSource = "", "", ""
		}
		checkAppendRecord(t, &r)
	})
}
