package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"p2pmalware/internal/simclock"
)

// The zero-alloc guarantees below are the teeth behind the lint:hotpath
// annotations on the trace layer: Emit, AppendEvent, AppendSpan, and the
// escaper must not allocate once the tracer's backing stores have reached
// steady state. Growth of the events slice and attr arena is amortized and
// excluded by pre-warming, exactly as a long study run amortizes it.

func TestEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(simclock.NewVirtual(simclock.DefaultEpoch), "net")
	// Warm the events slice and attr arena past what the measured runs
	// will ever need, so no growth happens inside AllocsPerRun.
	for i := 0; i < 4096; i++ {
		tr.Emit("warm", Int("n", int64(i)), String("s", "x"))
	}
	tr.mu.Lock()
	tr.events = tr.events[:0]
	tr.arena = tr.arena[:0]
	tr.mu.Unlock()
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		tr.Emit("event", Int("n", i), String("s", "x"))
	})
	if allocs != 0 {
		t.Fatalf("Emit allocated %v per run, want 0", allocs)
	}
}

func TestEmitAtZeroAlloc(t *testing.T) {
	tr := NewTracer(simclock.NewVirtual(simclock.DefaultEpoch), "net")
	at := simclock.DefaultEpoch.Add(time.Hour)
	for i := 0; i < 4096; i++ {
		tr.EmitAt(at, "warm", Int("n", int64(i)), Bool("ok", true), String("s", "x"))
	}
	tr.mu.Lock()
	tr.events = tr.events[:0]
	tr.arena = tr.arena[:0]
	tr.mu.Unlock()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.EmitAt(at, "event", Int("n", 7), Bool("ok", true), String("s", "x"))
	})
	if allocs != 0 {
		t.Fatalf("EmitAt allocated %v per run, want 0", allocs)
	}
}

func TestAppendEventZeroAlloc(t *testing.T) {
	e := Event{
		Time:  time.Date(2006, 3, 14, 9, 30, 0, 123456789, time.UTC),
		Scope: "limewire",
		Seq:   7,
		Name:  "download",
		Attrs: []Attr{String("file", `a"b <&> \exe`), Int("size", 4096), Bool("ok", true), Float("day", 1.5)},
	}
	dst := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = AppendEvent(dst[:0], e)
	})
	if allocs != 0 {
		t.Fatalf("AppendEvent allocated %v per run, want 0", allocs)
	}
}

func TestAppendSpanZeroAlloc(t *testing.T) {
	sp := Span{
		Time:   time.Date(2006, 3, 14, 9, 30, 0, 0, time.UTC),
		Scope:  "openft",
		Seq:    12,
		Stage:  StageAttempt,
		ID:     DeriveSpanID("openft", 12, StageAttempt, 2),
		Parent: DeriveSpanID("openft", 12, StageFetch, 0),
		Fate:   "timeout",
		Detail: "alt=10.0.0.9:1216",
		WallUS: -1,
	}
	dst := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = AppendSpan(dst[:0], sp)
	})
	if allocs != 0 {
		t.Fatalf("AppendSpan allocated %v per run, want 0", allocs)
	}
}

func TestAppendJSONStringZeroAlloc(t *testing.T) {
	dst := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = AppendJSONString(dst[:0], "a plain string with \"escapes\" and <html> & \xff junk  ")
	})
	if allocs != 0 {
		t.Fatalf("AppendJSONString allocated %v per run, want 0", allocs)
	}
}

// TestEmitCopiesAttrsIntoArena proves the arena contract: the caller's
// slice is not retained (reuse cannot corrupt recorded events), and
// events recorded before an arena growth keep their values afterwards.
func TestEmitCopiesAttrsIntoArena(t *testing.T) {
	t.Parallel()
	tr := NewTracer(simclock.NewVirtual(simclock.DefaultEpoch), "net")
	attrs := []Attr{String("k", "original")}
	tr.Emit("first", attrs...)
	attrs[0] = String("k", "clobbered")
	// Force many arena growths past the first event's region.
	for i := 0; i < 10000; i++ {
		tr.Emit("later", Int("n", int64(i)), String("pad", "xxxxxxxxxxxxxxxx"))
	}
	ev := tr.Events()[0]
	if got := string(AppendEvent(nil, ev)); got != `{"t":"2006-03-01T00:00:00Z","scope":"net","seq":1,"event":"first","k":"original"}` {
		t.Fatalf("recorded attrs not isolated from caller slice / arena growth:\n%s", got)
	}
	// Appending to a returned event's Attrs must not bleed into the next
	// event's attributes: the arena slices are capacity-capped.
	evs := tr.Events()
	_ = append(evs[0].Attrs, String("rogue", "x"))
	if got := string(AppendEvent(nil, evs[1])); got != `{"t":"2006-03-01T00:00:00Z","scope":"net","seq":2,"event":"later","n":0,"pad":"xxxxxxxxxxxxxxxx"}` {
		t.Fatalf("append through event attrs corrupted neighbor:\n%s", got)
	}
}

// TestMergeSpansKWayMatchesStableSort cross-checks the k-way span merge
// against a stable sort on randomized sorted streams with heavy timestamp
// ties, including its emit-order tie-break.
func TestMergeSpansKWayMatchesStableSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	epoch := simclock.DefaultEpoch
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(4)
		streams := make([][]Span, k)
		for s := range streams {
			n := rng.Intn(30)
			sps := make([]Span, n)
			at := epoch
			for i := range sps {
				at = at.Add(time.Duration(rng.Intn(2)) * time.Second)
				sps[i] = Span{Time: at, Scope: string(rune('a' + s%2)), Seq: int64(i), Stage: StageQuery, emit: uint64(i + 1)}
			}
			streams[s] = sps
		}
		var want []Span
		for _, s := range streams {
			want = append(want, s...)
		}
		sort.SliceStable(want, func(i, j int) bool { return spanLess(&want[i], &want[j]) })
		got := MergeSpans(streams...)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if !got[i].Time.Equal(want[i].Time) || got[i].Scope != want[i].Scope || got[i].emit != want[i].emit {
				t.Fatalf("trial %d: span k-way merge diverges at %d", trial, i)
			}
		}
	}
}
