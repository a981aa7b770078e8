package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/netsim"
)

// eventStudy runs a small two-network study and returns the study after
// Run.
func eventStudy(t *testing.T, seed uint64) *Study {
	t.Helper()
	st, err := NewStudy(StudyConfig{
		Seed: seed, Days: 1, QueriesPerDay: 5,
		ProgressEvery: 6 * time.Hour,
		LimeWire:      &netsim.LimeWireConfig{Seed: seed, HonestLeaves: 14, EchoHosts: 6},
		OpenFT:        &netsim.OpenFTConfig{Seed: seed, HonestUsers: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSameSeedStudiesEmitIdenticalEventTraces pins the point of stamping
// events with the virtual trace clock and merging per-network streams by
// (time, scope, seq): two runs of the same configuration serialize to the
// same bytes, even though the two networks execute concurrently on
// nondeterministic goroutine schedules and every flood's responses
// arrive in scheduler order.
func TestSameSeedStudiesEmitIdenticalEventTraces(t *testing.T) {
	var bufA, bufB bytes.Buffer
	if err := eventStudy(t, 57).WriteEvents(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := eventStudy(t, 57).WriteEvents(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.Len() == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("same-seed event traces differ:\n%s", firstDiffContext(bufA.String(), bufB.String()))
	}
}

// firstDiffContext returns the first differing lines of two JSONL blobs,
// for a readable failure message.
func firstDiffContext(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return "line " + strconv.Itoa(i) + ":\nA: " + la[i] + "\nB: " + lb[i]
		}
	}
	return "traces differ in length only"
}

func TestEventTraceShape(t *testing.T) {
	t.Parallel()
	st := eventStudy(t, 91)
	events := st.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	counts := make(map[string]map[string]int) // scope -> event name -> count
	for i, e := range events {
		if counts[e.Scope] == nil {
			counts[e.Scope] = make(map[string]int)
		}
		counts[e.Scope][e.Name]++
		if i > 0 && events[i].Time.Before(events[i-1].Time) {
			t.Fatalf("events out of chronological order at %d: %v after %v", i, events[i].Time, events[i-1].Time)
		}
	}
	for _, scope := range []string{"limewire", "openft"} {
		c := counts[scope]
		if c == nil {
			t.Fatalf("no events for scope %s", scope)
		}
		if c["query"] != 5 {
			t.Fatalf("%s: %d query events, want 5", scope, c["query"])
		}
		if c["responses"] != 5 {
			t.Fatalf("%s: %d responses events, want 5", scope, c["responses"])
		}
		if c["progress"] != 4 {
			t.Fatalf("%s: %d progress events, want 4 (every 6h over 1 day)", scope, c["progress"])
		}
		if c["download"] == 0 {
			t.Fatalf("%s: no download events; echo hosts should have produced downloadable hits", scope)
		}
	}
}
