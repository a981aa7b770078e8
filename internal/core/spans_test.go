package core

import (
	"bytes"
	"testing"

	"p2pmalware/internal/obs"
)

// spanStudy runs smallStudy without progress reports — so no barrier
// drains the pipeline mid-day — and returns the serialized span stream
// (plus the merged spans when the caller wants to inspect them
// structurally).
func spanStudy(t *testing.T, seed uint64, workers int, wall bool) ([]byte, []obs.Span) {
	t.Helper()
	cfg := smallStudy(seed, workers)
	cfg.ProgressEvery = 0
	cfg.SpanWallLatency = wall
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	spans := st.Spans()
	var buf bytes.Buffer
	if err := obs.WriteSpansJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), spans
}

// TestWorkerCountsEmitIdenticalSpans is TestWorkerCountsEmitIdenticalTraces
// with the pipeline never drained mid-day: with wall annotations off, the
// serialized span stream must be byte-identical at any worker count —
// span identity is derived from (scope, seq, stage, attempt), timestamps
// are virtual, and emission happens in commit order. Run under -race (as
// CI does) this also stresses the recorder against the worker pool.
func TestWorkerCountsEmitIdenticalSpans(t *testing.T) {
	base, _ := spanStudy(t, 57, 1, false)
	if len(base) == 0 {
		t.Fatal("empty span stream from Workers:1 study")
	}
	for _, workers := range []int{4, 8} {
		if got, _ := spanStudy(t, 57, workers, false); !bytes.Equal(base, got) {
			t.Fatalf("spans (workers 1 vs %d):\n%s", workers, firstDiffContext(string(base), string(got)))
		}
	}
}

// TestSpanStreamOmitsWallBytes pins the determinism contract at the byte
// level: the default stream must not carry any wall_us field.
func TestSpanStreamOmitsWallBytes(t *testing.T) {
	raw, spans := spanStudy(t, 57, 4, false)
	if bytes.Contains(raw, []byte(`"wall_us"`)) {
		t.Fatal("deterministic span stream contains wall_us bytes")
	}
	for _, sp := range spans {
		if sp.WallUS >= 0 {
			t.Fatalf("deterministic span carries WallUS=%d: %+v", sp.WallUS, sp)
		}
	}
}

// TestSpanStagesTileQueryLatency verifies the stage-attribution invariant
// behind `p2panalyze spans`: with wall annotations on, each query's six
// partition stage spans are cut from one shared set of clock stamps, so
// they sum to the root query span — exactly per query up to microsecond
// rounding, and within 1% in aggregate (the acceptance bound).
func TestSpanStagesTileQueryLatency(t *testing.T) {
	_, spans := spanStudy(t, 57, 4, true)

	partition := map[string]bool{
		obs.StageCollectWait: true, obs.StageCollect: true,
		obs.StageFetchWait: true, obs.StageFetch: true,
		obs.StageCommitHold: true, obs.StageCommit: true,
	}
	type key struct {
		scope string
		seq   int64
	}
	roots := make(map[key]int64)
	sums := make(map[key]int64)
	for _, sp := range spans {
		k := key{sp.Scope, sp.Seq}
		switch {
		case sp.Stage == obs.StageQuery:
			roots[k] = sp.WallUS
		case partition[sp.Stage]:
			sums[k] += sp.WallUS
		}
	}
	if len(roots) != 10 {
		t.Fatalf("expected 10 query root spans (2 networks x 5 queries), got %d", len(roots))
	}
	var rootTotal, stageTotal int64
	for k, root := range roots {
		sum, ok := sums[k]
		if !ok {
			t.Fatalf("query %v has no partition stage spans", k)
		}
		rootTotal += root
		stageTotal += sum
		// Six children and the root each truncate to whole microseconds.
		if d := root - sum; d < -7 || d > 7 {
			t.Errorf("query %v: stages sum to %dµs, root is %dµs (diff %dµs)", k, sum, root, d)
		}
	}
	if rootTotal == 0 {
		t.Fatal("query roots recorded zero total wall time")
	}
	ratio := float64(stageTotal) / float64(rootTotal)
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("aggregate stage coverage %.4f (Σstages=%dµs Σquery=%dµs), want within 1%%", ratio, stageTotal, rootTotal)
	}
}

// TestSpanTreeLinksResolve checks structural integrity: every non-root
// span's parent must exist in the same query's tree, and attempt spans
// must hang off their query's fetch span.
func TestSpanTreeLinksResolve(t *testing.T) {
	_, spans := spanStudy(t, 57, 4, false)
	ids := make(map[obs.SpanID]bool, len(spans))
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span ID %016x (%s %s seq=%d attempt=%d)", uint64(sp.ID), sp.Scope, sp.Stage, sp.Seq, sp.Attempt)
		}
		ids[sp.ID] = true
	}
	attempts := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("span %s/%s seq=%d has dangling parent %016x", sp.Scope, sp.Stage, sp.Seq, uint64(sp.Parent))
		}
		if sp.Stage == obs.StageAttempt {
			attempts++
			want := obs.DeriveSpanID(sp.Scope, sp.Seq, obs.StageFetch, 0)
			if sp.Parent != want {
				t.Errorf("attempt span %s seq=%d parented to %016x, want fetch %016x", sp.Scope, sp.Seq, uint64(sp.Parent), uint64(want))
			}
			if sp.Fate == "" {
				t.Errorf("attempt span %s seq=%d has no fate", sp.Scope, sp.Seq)
			}
		}
	}
	if attempts == 0 {
		t.Fatal("study emitted no attempt spans")
	}
}
