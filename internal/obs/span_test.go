package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func spanTime(sec int) time.Time {
	return time.Date(2006, 3, 1, 0, 0, sec, 0, time.UTC)
}

func TestDeriveSpanIDDeterministic(t *testing.T) {
	a := DeriveSpanID("limewire", 7, StageFetch, 0)
	b := DeriveSpanID("limewire", 7, StageFetch, 0)
	if a != b {
		t.Fatalf("same coordinates produced different IDs: %x vs %x", a, b)
	}
	distinct := map[SpanID]string{}
	add := func(label string, id SpanID) {
		if prev, ok := distinct[id]; ok {
			t.Fatalf("ID collision between %s and %s", prev, label)
		}
		distinct[id] = label
	}
	add("base", a)
	add("other scope", DeriveSpanID("openft", 7, StageFetch, 0))
	add("other seq", DeriveSpanID("limewire", 8, StageFetch, 0))
	add("other stage", DeriveSpanID("limewire", 7, StageScan, 0))
	add("other attempt", DeriveSpanID("limewire", 7, StageFetch, 1))
	// Field separators must prevent concatenation collisions.
	add("shifted concat", DeriveSpanID("limewire7", 0, StageFetch, 0))
}

func TestSpanRecorderDerivesIdentityAndOmitsWall(t *testing.T) {
	r := NewSpanRecorder("limewire", nil, false)
	st := r.Begin()
	r.End(st, Span{Time: spanTime(1), Seq: 3, Stage: StageFetch})
	r.AddWall(Span{Time: spanTime(1), Seq: 3, Stage: StageScan, Parent: DeriveSpanID("limewire", 3, StageFetch, 0)},
		spanTime(0), spanTime(2))
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != DeriveSpanID("limewire", 3, StageFetch, 0) {
		t.Fatalf("derived ID mismatch: %x", spans[0].ID)
	}
	if spans[0].Scope != "limewire" {
		t.Fatalf("scope not stamped: %q", spans[0].Scope)
	}
	for i, sp := range spans {
		if sp.WallUS != -1 {
			t.Fatalf("span %d: deterministic recorder kept wall duration %d", i, sp.WallUS)
		}
	}
}

func TestSpanRecorderWallMode(t *testing.T) {
	r := NewSpanRecorder("openft", nil, true)
	r.AddWall(Span{Time: spanTime(1), Seq: 1, Stage: StageCollect}, spanTime(0), spanTime(0).Add(1500*time.Microsecond))
	r.AddWallUS(Span{Time: spanTime(1), Seq: 1, Stage: StageCommit}, 250)
	spans := r.Spans()
	if spans[0].WallUS != 1500 {
		t.Fatalf("AddWall recorded %dus, want 1500", spans[0].WallUS)
	}
	if spans[1].WallUS != 250 {
		t.Fatalf("AddWallUS recorded %dus, want 250", spans[1].WallUS)
	}
}

func TestNilSpanRecorderDropsEverything(t *testing.T) {
	var r *SpanRecorder
	st := r.Begin()
	r.End(st, Span{Stage: StageFetch})
	r.AddWall(Span{Stage: StageScan}, spanTime(0), spanTime(1))
	r.AddWallUS(Span{Stage: StageCommit}, 10)
	if r.Len() != 0 || r.Spans() != nil || r.Wall() {
		t.Fatal("nil recorder must drop spans and report empty")
	}
}

func TestMergeSpansOrdersByTimeScopeEmission(t *testing.T) {
	lw := NewSpanRecorder("limewire", nil, false)
	ft := NewSpanRecorder("openft", nil, false)
	// Same virtual instant everywhere: order must fall back to scope,
	// then per-recorder emission order.
	at := spanTime(5)
	lw.AddWallUS(Span{Time: at, Seq: 2, Stage: StageQuery}, 0)
	lw.AddWallUS(Span{Time: at, Seq: 2, Stage: StageCommit}, 0)
	ft.AddWallUS(Span{Time: at, Seq: 1, Stage: StageQuery}, 0)
	lw.AddWallUS(Span{Time: spanTime(1), Seq: 1, Stage: StageQuery}, 0)

	merged := MergeSpans(lw.Spans(), ft.Spans())
	got := make([]string, 0, len(merged))
	for _, sp := range merged {
		got = append(got, sp.Scope+"/"+sp.Stage)
	}
	want := []string{
		"limewire/query",  // earlier instant wins outright
		"limewire/query",  // same instant: scope "limewire" < "openft"
		"limewire/commit", // same instant+scope: emission order
		"openft/query",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	// Merge order must not depend on which argument order the streams
	// arrive in.
	rev := MergeSpans(ft.Spans(), lw.Spans())
	for i := range merged {
		if merged[i].ID != rev[i].ID || merged[i].Stage != rev[i].Stage {
			t.Fatalf("merge is sensitive to stream argument order at %d", i)
		}
	}
}

func TestAppendSpanBytes(t *testing.T) {
	sp := Span{
		Time:      spanTime(1),
		Scope:     "limewire",
		Seq:       3,
		Stage:     StageAttempt,
		Attempt:   2,
		Retry:     1,
		ID:        0x00ab,
		Parent:    0xcd,
		BackoffUS: 1500,
		Fate:      "refused",
		Detail:    "10.0.0.9:6346",
		WallUS:    42,
	}
	got := string(AppendSpan(nil, sp))
	want := `{"t":"2006-03-01T00:00:01Z","scope":"limewire","seq":3,"span":"attempt",` +
		`"id":"00000000000000ab","parent":"00000000000000cd","attempt":2,"retry":1,` +
		`"backoff_us":1500,"fate":"refused","detail":"10.0.0.9:6346","wall_us":42}`
	if got != want {
		t.Fatalf("AppendSpan:\n got %s\nwant %s", got, want)
	}

	// Deterministic form: zero optional fields and negative wall vanish.
	min := Span{Time: spanTime(1), Scope: "openft", Seq: 1, Stage: StageQuery, ID: 1, WallUS: -1}
	got = string(AppendSpan(nil, min))
	want = `{"t":"2006-03-01T00:00:01Z","scope":"openft","seq":1,"span":"query","id":"0000000000000001"}`
	if got != want {
		t.Fatalf("AppendSpan minimal:\n got %s\nwant %s", got, want)
	}
}

func TestParseSpanIDRoundTrip(t *testing.T) {
	for _, id := range []SpanID{0, 1, 0xdeadbeef, SpanID(fnv64Offset)} {
		s := string(appendSpanID(nil, id))
		if len(s) != 16 {
			t.Fatalf("id %x rendered %d digits, want 16", id, len(s))
		}
		back, err := ParseSpanID(s)
		if err != nil || back != id {
			t.Fatalf("round trip %x -> %q -> %x (err %v)", id, s, back, err)
		}
	}
	if _, err := ParseSpanID("not-hex"); err == nil {
		t.Fatal("ParseSpanID accepted garbage")
	}
}

func TestWriteSpansJSONL(t *testing.T) {
	r := NewSpanRecorder("limewire", nil, false)
	r.AddWallUS(Span{Time: spanTime(1), Seq: 1, Stage: StageQuery}, 0)
	r.AddWallUS(Span{Time: spanTime(2), Seq: 2, Stage: StageQuery}, 0)
	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, r.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"t":"2006-03-01T`) || !strings.HasSuffix(ln, "}") {
			t.Fatalf("malformed JSONL line: %s", ln)
		}
	}
}

// TestReadSpansJSONLRoundTrip checks that the decoder reads back every
// field the encoder writes, for a wall stream and a deterministic one: the
// root's measured 0µs stays 0, and an unrecorded wall time stays -1.
func TestReadSpansJSONLRoundTrip(t *testing.T) {
	for _, wall := range []bool{true, false} {
		r := NewSpanRecorder("limewire", nil, wall)
		root := DeriveSpanID("limewire", 4, StageQuery, 0)
		fetch := DeriveSpanID("limewire", 4, StageFetch, 0)
		r.AddWallUS(Span{Time: spanTime(1), Seq: 4, Stage: StageQuery}, 0)
		r.AddWallUS(Span{Time: spanTime(1), Seq: 4, Stage: StageFetch, Parent: root}, 1500)
		r.AddWallUS(Span{
			Time: spanTime(1), Seq: 4, Stage: StageAttempt, Attempt: 2, Retry: 1, Parent: fetch,
			BackoffUS: 250, Fate: "refused", Detail: `10.0.0.9:6346 "x"`,
		}, 7)
		want := r.Spans()
		var buf bytes.Buffer
		if err := WriteSpansJSONL(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSpansJSONL(&buf)
		if err != nil {
			t.Fatalf("wall=%v: %v", wall, err)
		}
		if len(got) != len(want) {
			t.Fatalf("wall=%v: read %d spans, want %d", wall, len(got), len(want))
		}
		for i := range want {
			want[i].emit = 0
			if got[i] != want[i] {
				t.Errorf("wall=%v span %d:\n got %+v\nwant %+v", wall, i, got[i], want[i])
			}
		}
	}
}

func TestReadSpansJSONLNamesBadLine(t *testing.T) {
	good := string(AppendSpan(nil, Span{Time: spanTime(1), Scope: "openft", Seq: 1, Stage: StageQuery, ID: 1, WallUS: -1}))
	for _, tc := range []struct{ input, line string }{
		{good + "\n{\"t\":", "line 2"},
		{good + "\n\n" + strings.Replace(good, `"id":"0000000000000001"`, `"id":"not-hex"`, 1), "line 3"},
		{good + "\n" + strings.Replace(good, `"id":"0000000000000001"`, `"id":"0000000000000001","parent":"zz"`, 1), "line 2"},
	} {
		_, err := ReadSpansJSONL(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("ReadSpansJSONL(%q) = %v, want an error naming %s", tc.input, err, tc.line)
		}
	}
}

// TestSpanHotPathAllocs is the AllocsPerRun==0 proof required for the
// lint:hotpath markers on the span fast path: begin/end and the explicit
// wall-stamp variants must not allocate (the recorder preallocates its
// backing slice; the iteration count stays within that capacity).
func TestSpanHotPathAllocs(t *testing.T) {
	for _, wall := range []bool{false, true} {
		r := NewSpanRecorder("limewire", nil, wall)
		var seq int64
		allocs := testing.AllocsPerRun(500, func() {
			st := r.Begin()
			seq++
			r.End(st, Span{Time: spanTime(1), Seq: seq, Stage: StageFetch})
		})
		if allocs != 0 {
			t.Fatalf("wall=%v: Begin/End allocated %.1f per op, want 0", wall, allocs)
		}
	}
	r := NewSpanRecorder("limewire", nil, true)
	var seq int64
	allocs := testing.AllocsPerRun(400, func() {
		seq++
		r.AddWall(Span{Time: spanTime(1), Seq: seq, Stage: StageCollect}, spanTime(0), spanTime(1))
		r.AddWallUS(Span{Time: spanTime(1), Seq: seq, Stage: StageCommit, Attempt: 1}, 5)
	})
	if allocs != 0 {
		t.Fatalf("AddWall/AddWallUS allocated %.1f per op, want 0", allocs)
	}
}

func TestEmitRejectsReservedAttrKeys(t *testing.T) {
	for _, key := range []string{"t", "scope", "seq", "event"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Emit accepted reserved attribute key %q", key)
				}
			}()
			tr := NewTracer(nil, "test")
			tr.Emit("boom", String(key, "x"))
		}()
	}
	// Non-reserved keys still pass.
	tr := NewTracer(nil, "test")
	tr.Emit("ok", String("term", "x"), Int("hits", 3))
	if tr.Len() != 1 {
		t.Fatal("legitimate attribute keys were rejected")
	}
}
