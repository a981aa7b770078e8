package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"p2pmalware/internal/simclock"
)

func TestTracerStampsVirtualTime(t *testing.T) {
	t.Parallel()
	clock := simclock.NewVirtual(simclock.DefaultEpoch)
	tr := NewTracer(clock, "net")
	clock.Schedule(time.Hour, func(now time.Time) {
		tr.Emit("tick", Int("n", 1))
	})
	clock.Schedule(2*time.Hour, func(now time.Time) {
		tr.Emit("tick", Int("n", 2))
	})
	clock.Run()
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if got := events[0].Time; !got.Equal(simclock.DefaultEpoch.Add(time.Hour)) {
		t.Fatalf("event time = %v, want epoch+1h", got)
	}
	if events[1].Seq <= events[0].Seq {
		t.Fatal("seq must increase in emission order")
	}
}

func TestNilTracerDropsEvents(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	tr.Emit("ignored", String("k", "v"))
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be silent")
	}
}

func TestAppendEventFixedEncoding(t *testing.T) {
	t.Parallel()
	e := Event{
		Time:  time.Date(2006, 3, 14, 9, 30, 0, 123456789, time.UTC),
		Scope: "limewire",
		Seq:   7,
		Name:  "download",
		Attrs: []Attr{String("file", `a"b.exe`), Int("size", 4096), Bool("ok", true), Float("day", 1.5)},
	}
	got := string(AppendEvent(nil, e))
	want := `{"t":"2006-03-14T09:30:00.123456789Z","scope":"limewire","seq":7,"event":"download","file":"a\"b.exe","size":4096,"ok":true,"day":1.5}`
	if got != want {
		t.Fatalf("encoding mismatch:\n got %s\nwant %s", got, want)
	}
	// The line must also be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if m["size"] != float64(4096) || m["scope"] != "limewire" {
		t.Fatalf("decoded fields wrong: %v", m)
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	t.Parallel()
	events := []Event{
		{Time: simclock.DefaultEpoch, Scope: "s", Seq: 1, Name: "a"},
		{Time: simclock.DefaultEpoch.Add(time.Second), Scope: "s", Seq: 2, Name: "b", Attrs: []Attr{Int("n", 3)}},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}
