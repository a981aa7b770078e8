package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/p2p"
)

var update = flag.Bool("update", false, "rewrite golden trace files under testdata/golden/")

// canonicalPlan returns a private copy of the reference hostile-network
// profile the golden traces and headline tolerances are pinned against.
func canonicalPlan() *faultsim.FaultPlan {
	p := faultsim.Profiles["canonical"]
	return &p
}

// goldenRetry keeps fault-mode attempts short enough that slow-loris
// stalls cannot dominate a golden run, while staying generous enough for
// loaded machines.
func goldenRetry() p2p.RetryPolicy {
	return p2p.RetryPolicy{
		Attempts:       3,
		AttemptTimeout: 400 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
	}
}

// goldenEvents runs a small single-network study and serializes its
// event trace.
func goldenEvents(t *testing.T, network string, faults *faultsim.FaultPlan) []byte {
	t.Helper()
	cfg := StudyConfig{
		Seed: 42, Days: 2, QueriesPerDay: 3,
		Workers:    4,
		Faults:     faults,
		FetchRetry: goldenRetry(),
	}
	switch network {
	case "limewire":
		cfg.LimeWire = &netsim.LimeWireConfig{Seed: 42, HonestLeaves: 12, EchoHosts: 5}
	case "openft":
		cfg.OpenFT = &netsim.OpenFTConfig{Seed: 42, HonestUsers: 12}
	default:
		t.Fatalf("unknown network %q", network)
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenSpans runs the same study as goldenEvents and serializes its
// span stream instead; with wall annotations off (the default) the
// stream is deterministic and golden-able exactly like the event trace.
func goldenSpans(t *testing.T, network string, faults *faultsim.FaultPlan) []byte {
	t.Helper()
	cfg := StudyConfig{
		Seed: 42, Days: 2, QueriesPerDay: 3,
		Workers:    4,
		Faults:     faults,
		FetchRetry: goldenRetry(),
	}
	switch network {
	case "limewire":
		cfg.LimeWire = &netsim.LimeWireConfig{Seed: 42, HonestLeaves: 12, EchoHosts: 5}
	case "openft":
		cfg.OpenFT = &netsim.OpenFTConfig{Seed: 42, HonestUsers: 12}
	default:
		t.Fatalf("unknown network %q", network)
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden diffs a regenerated trace byte-for-byte against its
// committed golden. -update rewrites the file instead.
func checkGolden(t *testing.T, name string, gen func() []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		got := gen()
		if len(got) == 0 {
			t.Fatal("refusing to write an empty golden trace")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (regenerate with: go test ./internal/core/ -run GoldenTrace -update): %v", err)
	}
	if got := gen(); !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (A=golden, B=regenerated):\n%s", path, firstDiffContext(string(want), string(got)))
	}
}

func TestGoldenTraceLimeWireClean(t *testing.T) {
	checkGolden(t, "limewire_clean.jsonl", func() []byte { return goldenEvents(t, "limewire", nil) })
}

func TestGoldenTraceLimeWireCanonical(t *testing.T) {
	checkGolden(t, "limewire_canonical.jsonl", func() []byte { return goldenEvents(t, "limewire", canonicalPlan()) })
}

func TestGoldenTraceOpenFTClean(t *testing.T) {
	checkGolden(t, "openft_clean.jsonl", func() []byte { return goldenEvents(t, "openft", nil) })
}

func TestGoldenTraceOpenFTCanonical(t *testing.T) {
	checkGolden(t, "openft_canonical.jsonl", func() []byte { return goldenEvents(t, "openft", canonicalPlan()) })
}

// The span goldens gate the deterministic span stream the same way the
// event goldens gate the event trace: same seed, same bytes.

func TestGoldenTraceLimeWireCleanSpans(t *testing.T) {
	checkGolden(t, "limewire_clean_spans.jsonl", func() []byte { return goldenSpans(t, "limewire", nil) })
}

func TestGoldenTraceLimeWireCanonicalSpans(t *testing.T) {
	checkGolden(t, "limewire_canonical_spans.jsonl", func() []byte { return goldenSpans(t, "limewire", canonicalPlan()) })
}

func TestGoldenTraceOpenFTCleanSpans(t *testing.T) {
	checkGolden(t, "openft_clean_spans.jsonl", func() []byte { return goldenSpans(t, "openft", nil) })
}

func TestGoldenTraceOpenFTCanonicalSpans(t *testing.T) {
	checkGolden(t, "openft_canonical_spans.jsonl", func() []byte { return goldenSpans(t, "openft", canonicalPlan()) })
}
