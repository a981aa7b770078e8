package core

import (
	"bytes"
	"testing"
	"time"

	"p2pmalware/internal/netsim"
)

// workerStudy runs the eventStudy configuration with an explicit worker
// count and returns the serialized event and record traces.
func workerStudy(t *testing.T, seed uint64, workers int) (events, records []byte) {
	t.Helper()
	st, err := NewStudy(StudyConfig{
		Seed: seed, Days: 1, QueriesPerDay: 5,
		ProgressEvery: 6 * time.Hour,
		Workers:       workers,
		LimeWire:      &netsim.LimeWireConfig{Seed: seed, HonestLeaves: 14, EchoHosts: 6},
		OpenFT:        &netsim.OpenFTConfig{Seed: seed, HonestUsers: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	var ev, rec bytes.Buffer
	if err := st.WriteEvents(&ev); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	return ev.Bytes(), rec.Bytes()
}

// TestWorkerCountsEmitIdenticalTraces pins the pipeline's determinism
// contract: for one seed, the event and record traces are byte-identical
// at any worker count, servent IDs included.
func TestWorkerCountsEmitIdenticalTraces(t *testing.T) {
	ev1, rec1 := workerStudy(t, 57, 1)
	if len(ev1) == 0 || len(rec1) == 0 {
		t.Fatal("empty trace from Workers:1 study")
	}
	for _, workers := range []int{4, 8} {
		ev, rec := workerStudy(t, 57, workers)
		if !bytes.Equal(ev1, ev) {
			t.Fatalf("events (workers 1 vs %d):\n%s", workers, firstDiffContext(string(ev1), string(ev)))
		}
		if !bytes.Equal(rec1, rec) {
			t.Fatalf("records (workers 1 vs %d):\n%s", workers, firstDiffContext(string(rec1), string(rec)))
		}
	}
}

// churnedStudy runs a study whose LimeWire leaves churn at every day
// boundary and returns its serialized event and record traces.
func churnedStudy(t *testing.T, seed uint64) (events, records []byte) {
	t.Helper()
	st, err := NewStudy(StudyConfig{
		Seed: seed, Days: 3, QueriesPerDay: 6,
		ChurnPerDay: 0.4,
		Workers:     4,
		LimeWire:    &netsim.LimeWireConfig{Seed: seed, HonestLeaves: 16, EchoHosts: 6},
		OpenFT:      &netsim.OpenFTConfig{Seed: seed, HonestUsers: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	var ev, rec bytes.Buffer
	if err := st.WriteEvents(&ev); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	return ev.Bytes(), rec.Bytes()
}

// TestSameSeedChurnedStudiesEmitIdenticalTraces extends the same-seed
// guarantee to studies with day-boundary churn: the replacement leaves
// attach to arbitrary ultrapeers, so it holds only because every
// ultrapeer reaches its leaves whatever TTL its first copy of a query
// carries, and because collection ends on exact flood completion.
func TestSameSeedChurnedStudiesEmitIdenticalTraces(t *testing.T) {
	ev1, rec1 := churnedStudy(t, 101)
	if len(ev1) == 0 || len(rec1) == 0 {
		t.Fatal("empty trace from churned study")
	}
	ev2, rec2 := churnedStudy(t, 101)
	if !bytes.Equal(ev1, ev2) {
		t.Fatalf("same-seed churned events differ:\n%s", firstDiffContext(string(ev1), string(ev2)))
	}
	if !bytes.Equal(rec1, rec2) {
		t.Fatalf("same-seed churned records differ:\n%s", firstDiffContext(string(rec1), string(rec2)))
	}
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
	events := st.Events()
	churns, queries := 0, 0
	for _, e := range events {
		switch e.Name {
		case "churn":
			churns++
		case "query":
			queries++
		}
	}
	if churns != 2 {
		t.Fatalf("expected 2 churn events over 3 days, got %d", churns)
	}
	if queries != 24 {
		t.Fatalf("expected 24 query events, got %d", queries)
	}
}
