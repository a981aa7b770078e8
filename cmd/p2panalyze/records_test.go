package main

import (
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/dataset"
)

func sampleTrace(n int) *dataset.Trace {
	tr := dataset.NewTrace()
	base := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		rec := dataset.ResponseRecord{
			Time:         base.Add(time.Duration(i) * time.Minute),
			Network:      dataset.LimeWire,
			Query:        "photoshop",
			Filename:     "photoshop.zip",
			Size:         1000,
			SourceIP:     "10.0.0.1",
			SourcePort:   6346,
			SourceClass:  "public",
			Downloadable: true,
			Downloaded:   true,
		}
		tr.Add(rec)
	}
	return tr
}

// TestRecordsLimitZeroPrintsAll pins the documented "-limit 0 = all"
// semantics: a zero limit must disable the cap, not print nothing.
func TestRecordsLimitZeroPrintsAll(t *testing.T) {
	tr := sampleTrace(50)
	var buf strings.Builder
	matched, printed := printRecords(&buf, tr, &filters{}, 0, false)
	if matched != 50 || printed != 50 {
		t.Fatalf("limit 0: matched %d printed %d, want 50/50", matched, printed)
	}
	if strings.Contains(buf.String(), "more matching records") {
		t.Fatal("limit 0 still printed a truncation notice")
	}
	if got := strings.Count(buf.String(), "\n"); got != 50 {
		t.Fatalf("limit 0 printed %d lines, want 50", got)
	}
}

func TestRecordsLimitCapsOutput(t *testing.T) {
	tr := sampleTrace(50)
	var buf strings.Builder
	matched, printed := printRecords(&buf, tr, &filters{}, 20, false)
	if matched != 50 || printed != 20 {
		t.Fatalf("limit 20: matched %d printed %d, want 50/20", matched, printed)
	}
	if !strings.Contains(buf.String(), "... 30 more matching records") {
		t.Fatalf("missing truncation notice:\n%s", buf.String())
	}
}

func TestRecordsCountOnly(t *testing.T) {
	tr := sampleTrace(7)
	var buf strings.Builder
	matched, printed := printRecords(&buf, tr, &filters{}, 20, true)
	if matched != 7 || printed != 0 {
		t.Fatalf("count: matched %d printed %d, want 7/0", matched, printed)
	}
	if strings.TrimSpace(buf.String()) != "7" {
		t.Fatalf("count output %q, want \"7\"", buf.String())
	}
}

func TestRecordsFilters(t *testing.T) {
	tr := sampleTrace(3)
	mal := dataset.ResponseRecord{
		Time: time.Date(2006, 3, 2, 0, 0, 0, 0, time.UTC), Network: dataset.OpenFT,
		Query: "game", Filename: "game.exe", SourceIP: "10.0.0.9", SourceClass: "public",
		Downloadable: true, Downloaded: true, Malware: "W32.Sivex.A",
	}
	tr.Add(mal)
	var buf strings.Builder
	matched, _ := printRecords(&buf, tr, &filters{family: "any"}, 0, false)
	if matched != 1 {
		t.Fatalf("malware filter matched %d, want 1", matched)
	}
	if !strings.Contains(buf.String(), "MALWARE:W32.Sivex.A") {
		t.Fatalf("missing malware label:\n%s", buf.String())
	}
	buf.Reset()
	if matched, _ = printRecords(&buf, tr, &filters{network: "limewire"}, 0, false); matched != 3 {
		t.Fatalf("network filter matched %d, want 3", matched)
	}
}
