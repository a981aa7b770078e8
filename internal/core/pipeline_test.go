package core

import (
	"bytes"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
)

// smallStudy is the one-day, five-query two-network study the identity
// and shape tests share, reporting progress every six virtual hours.
// workers 0 means the default width, fetchWidth.
func smallStudy(seed uint64, workers int) StudyConfig {
	return StudyConfig{
		Seed: seed, Days: 1, QueriesPerDay: 5,
		ProgressEvery: 6 * time.Hour,
		Workers:       workers,
		LimeWire:      &netsim.LimeWireConfig{Seed: seed, HonestLeaves: 14, EchoHosts: 6},
		OpenFT:        &netsim.OpenFTConfig{Seed: seed, HonestUsers: 14},
	}
}

// studyStreams runs a study and returns its serialized span and record
// streams.
func studyStreams(t *testing.T, cfg StudyConfig) (spans, records []byte) {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sp, rec bytes.Buffer
	if err := obs.WriteSpansJSONL(&sp, st.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	return sp.Bytes(), rec.Bytes()
}

// workerStudy runs smallStudy with an explicit worker count and returns
// the serialized span and record streams.
func workerStudy(t *testing.T, seed uint64, workers int) (spans, records []byte) {
	t.Helper()
	return studyStreams(t, smallStudy(seed, workers))
}

// checkSameStreams fails the test at the first line where two runs'
// span or record streams differ.
func checkSameStreams(t *testing.T, what string, spans1, rec1, spans2, rec2 []byte) {
	t.Helper()
	if len(spans1) == 0 || len(rec1) == 0 {
		t.Fatalf("%s: empty stream", what)
	}
	if !bytes.Equal(spans1, spans2) {
		t.Fatalf("%s: spans differ:\n%s", what, firstDiffContext(string(spans1), string(spans2)))
	}
	if !bytes.Equal(rec1, rec2) {
		t.Fatalf("%s: records differ:\n%s", what, firstDiffContext(string(rec1), string(rec2)))
	}
}

// TestSameSeedStudiesEmitIdenticalTraces pins the point of stamping spans
// with virtual trace time and merging per-network streams by (time,
// scope, emission order): two runs of the same configuration serialize
// to the same bytes, even though the two networks execute concurrently on
// nondeterministic goroutine schedules and every flood's responses
// arrive in scheduler order.
func TestSameSeedStudiesEmitIdenticalTraces(t *testing.T) {
	sp1, rec1 := workerStudy(t, 57, 0)
	sp2, rec2 := workerStudy(t, 57, 0)
	checkSameStreams(t, "same seed", sp1, rec1, sp2, rec2)
}

// TestWorkerCountsEmitIdenticalTraces pins the pipeline's determinism
// contract: for one seed, the span and record streams are byte-identical
// at any worker count, servent IDs included. 0 is the default width.
func TestWorkerCountsEmitIdenticalTraces(t *testing.T) {
	sp1, rec1 := workerStudy(t, 57, 1)
	for _, workers := range []int{4, 8, 0, 32} {
		sp, rec := workerStudy(t, 57, workers)
		checkSameStreams(t, fmt.Sprintf("workers 1 vs %d", workers), sp1, rec1, sp, rec)
	}
}

// progressLine matches the progress lines perfbench/study.go times
// set-up and per-day latency by: its pattern without the "p2pstudy: "
// prefix cmd/p2pstudy's logger adds.
var progressLine = regexp.MustCompile(`^(limewire|openft): day [0-9.]+: `)

// TestProgressLinesAndQuerySpans pins the study's shape per network: one
// query span per query, scan spans for the echo hosts' downloadable hits,
// a chronological span stream, and one progress line in the parsed
// format per ProgressEvery interval.
func TestProgressLinesAndQuerySpans(t *testing.T) {
	t.Parallel()
	st, err := NewStudy(smallStudy(91, 0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	progress := make(map[string]int) // scope -> matching progress lines
	st.Progress = func(format string, args ...any) {
		if m := progressLine.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
			mu.Lock()
			progress[m[1]]++
			mu.Unlock()
		}
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	spans := st.Spans()
	counts := make(map[string]map[string]int) // scope -> stage -> count
	for i, sp := range spans {
		if counts[sp.Scope] == nil {
			counts[sp.Scope] = make(map[string]int)
		}
		counts[sp.Scope][sp.Stage]++
		if i > 0 && sp.Time.Before(spans[i-1].Time) {
			t.Fatalf("spans out of chronological order at %d: %v after %v", i, sp.Time, spans[i-1].Time)
		}
	}
	for _, scope := range []string{"limewire", "openft"} {
		c := counts[scope]
		if c[obs.StageQuery] != 5 {
			t.Errorf("%s: %d query spans, want 5", scope, c[obs.StageQuery])
		}
		if c[obs.StageScan] == 0 {
			t.Errorf("%s: no scan spans; echo hosts should have produced downloadable hits", scope)
		}
		if progress[scope] != 4 {
			t.Errorf("%s: %d progress lines matching %s, want 4 (every 6h over 1 day)", scope, progress[scope], progressLine)
		}
	}
}

// churnedStudy runs a study whose LimeWire leaves churn at every day
// boundary and returns its serialized span and record streams.
func churnedStudy(t *testing.T, seed uint64) (spans, records []byte) {
	t.Helper()
	return studyStreams(t, StudyConfig{
		Seed: seed, Days: 3, QueriesPerDay: 6,
		ChurnPerDay: 0.4,
		Workers:     4,
		LimeWire:    &netsim.LimeWireConfig{Seed: seed, HonestLeaves: 16, EchoHosts: 6},
		OpenFT:      &netsim.OpenFTConfig{Seed: seed, HonestUsers: 14},
	})
}

// TestSameSeedChurnedStudiesEmitIdenticalTraces extends the same-seed
// guarantee to studies with day-boundary churn: the replacement leaves
// attach to arbitrary ultrapeers, so it holds only because every
// ultrapeer reaches its leaves whatever TTL its first copy of a query
// carries, and because collection ends on exact flood completion.
func TestSameSeedChurnedStudiesEmitIdenticalTraces(t *testing.T) {
	sp1, rec1 := churnedStudy(t, 101)
	sp2, rec2 := churnedStudy(t, 101)
	checkSameStreams(t, "same-seed churned", sp1, rec1, sp2, rec2)
}

// TestPipelinedStudyUnderChurn exercises the pipelined downloader with a
// high worker count while day-boundary churn replaces leaves mid-study.
// Run with -race this stresses the flood ledger, fetch cache, and
// barrier paths against node teardown.
func TestPipelinedStudyUnderChurn(t *testing.T) {
	t.Parallel()
	st, err := NewStudy(StudyConfig{
		Seed: 101, Days: 3, QueriesPerDay: 8,
		ChurnPerDay: 0.4,
		Workers:     8,
		LimeWire:    &netsim.LimeWireConfig{Seed: 101, HonestLeaves: 16, EchoHosts: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("churned pipelined study produced no records")
	}
	churns, queries := 0, 0
	for _, sp := range st.Spans() {
		switch sp.Stage {
		case obs.StageChurn:
			churns++
		case obs.StageQuery:
			queries++
		}
	}
	if churns != 2 {
		t.Fatalf("expected 2 churn spans over 3 days, got %d", churns)
	}
	if queries != 24 {
		t.Fatalf("expected 24 query spans, got %d", queries)
	}
}
