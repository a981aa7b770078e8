package main

import (
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/obs"
	"p2pmalware/internal/simclock"
)

// sampleSpans builds a two-query span stream, with one day boundary's
// circuit and churn spans between the queries, through the real recorder
// so the test exercises the same bytes p2pstudy emits.
func sampleSpans(t *testing.T, wallMode bool) []obs.Span {
	t.Helper()
	clock := simclock.NewVirtual(time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC))
	rec := obs.NewSpanRecorder("limewire", clock, wallMode)
	base := clock.Now()
	for seq := int64(0); seq < 2; seq++ {
		at := base.Add(time.Duration(seq) * time.Minute)
		if seq == 1 {
			rec.AddWallUS(obs.Span{Time: at, Seq: 1, Stage: obs.StageCircuit, Detail: "opened=1 closed=0"}, 0)
			rec.AddWallUS(obs.Span{Time: at, Seq: 1, Stage: obs.StageChurn, Detail: "replaced=3"}, 0)
		}
		root := obs.Span{Time: at, Seq: seq, Stage: obs.StageQuery}
		rec.AddWallUS(root, 1000)
		rootID := obs.DeriveSpanID("limewire", seq, obs.StageQuery, 0)
		for i, st := range []string{
			obs.StageCollectWait, obs.StageCollect, obs.StageFetchWait,
			obs.StageFetch, obs.StageCommitHold, obs.StageCommit,
		} {
			rec.AddWallUS(obs.Span{Time: at, Seq: seq, Stage: st, Parent: rootID}, int64(100+i))
		}
		fetchID := obs.DeriveSpanID("limewire", seq, obs.StageFetch, 0)
		rec.AddWallUS(obs.Span{
			Time: at, Seq: seq, Stage: obs.StageAttempt, Attempt: 1, Retry: 1,
			Parent: fetchID, BackoffUS: 500, Fate: "refused", Detail: "10.0.0.9:6346",
		}, 30)
		rec.AddWallUS(obs.Span{
			Time: at, Seq: seq, Stage: obs.StageAttempt, Attempt: 2,
			Parent: fetchID, Fate: "ok", Detail: "10.0.0.9:6346",
		}, 40)
	}
	var sb strings.Builder
	if err := obs.WriteSpansJSONL(&sb, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpansJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// checkDayBoundaryRows checks that the circuit and churn spans get their
// own stage-table rows after the query stages, and that the query count
// counts query roots only.
func checkDayBoundaryRows(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "2 queries, 20 spans") {
		t.Errorf("day-boundary spans changed the query count:\n%s", out)
	}
	commit := strings.Index(out, "\ncommit ")
	circuit := strings.Index(out, "\ncircuit ")
	churn := strings.Index(out, "\nchurn ")
	if commit < 0 || circuit < commit || churn < circuit {
		t.Errorf("stage table wants rows commit, circuit, churn in that order (at %d, %d, %d):\n%s", commit, circuit, churn, out)
	}
}

func TestSpansWallMode(t *testing.T) {
	spans := sampleSpans(t, true)
	var buf strings.Builder
	printSpans(&buf, spans, 5)
	out := buf.String()
	checkDayBoundaryRows(t, out)
	for _, want := range []string{
		"== limewire ==",
		obs.StageCollectWait,
		"queue wait vs service:",
		"stage coverage:",
		"attempt fates: ok=2 refused=2",
		"straggler top 2:",
		"fate=refused backoff=500µs src=10.0.0.9:6346",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no wall_us data") {
		t.Errorf("wall-mode report claims no wall data:\n%s", out)
	}
}

// TestSpansDeterministicMode checks the analyzer degrades gracefully on
// golden-able streams: counts and fates without a stage-time table.
func TestSpansDeterministicMode(t *testing.T) {
	spans := sampleSpans(t, false)
	for _, s := range spans {
		if s.WallUS >= 0 {
			t.Fatalf("deterministic stream carries wall_us: %+v", s)
		}
	}
	var buf strings.Builder
	printSpans(&buf, spans, 5)
	out := buf.String()
	checkDayBoundaryRows(t, out)
	for _, want := range []string{
		"no wall_us data",
		"attempt fates: ok=2 refused=2",
		"total backoff slept 1ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "straggler") {
		t.Errorf("deterministic report rendered stragglers without wall data:\n%s", out)
	}
}

func TestQuantilesNearestRank(t *testing.T) {
	p50, p95, p99, total := quantiles([]int64{5, 1, 3, 2, 4})
	if p50 != 3 || p95 != 5 || p99 != 5 || total != 15 {
		t.Fatalf("quantiles = %d/%d/%d/%d, want 3/5/5/15", p50, p95, p99, total)
	}
}
