package core

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
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

// goldenCase is one small study whose two deterministic streams are
// pinned byte for byte: spans as testdata/golden/<name>_spans.jsonl and
// records as <name>_records.jsonl.
type goldenCase struct {
	name    string
	lw, ft  bool
	profile string // faultsim profile; "" runs clean
	days    int
	perDay  int
	churn   float64 // StudyConfig.ChurnPerDay
}

// The clean and canonical runs of each network have named tests below:
// one checks records, its Spans twin checks spans.
var (
	lwClean     = goldenCase{name: "limewire_clean", lw: true, days: 2, perDay: 3}
	lwCanonical = goldenCase{name: "limewire_canonical", lw: true, profile: "canonical", days: 2, perDay: 3}
	ftClean     = goldenCase{name: "openft_clean", ft: true, days: 2, perDay: 3}
	ftCanonical = goldenCase{name: "openft_canonical", ft: true, profile: "canonical", days: 2, perDay: 3}
)

// goldenCases are the remaining cases, each checked on both streams by
// TestGoldenTrace.
var goldenCases = []goldenCase{
	// The only goldens with alternate-source downloads, a circuit span and
	// push downloads under an active plan (push hits bypass the injector).
	{name: "limewire_truncating", lw: true, profile: "truncating", days: 2, perDay: 3},
	// The only golden with error verdicts; also opens a circuit.
	{name: "openft_lossy", ft: true, profile: "lossy", days: 3, perDay: 6},
	// ChurnPerDay replaces LimeWire leaves only; OpenFT churns from a
	// fault plan alone, so this clean run has no openft churn span.
	{name: "both_churned", lw: true, ft: true, days: 2, perDay: 3, churn: 0.4},
}

func (c goldenCase) config() StudyConfig {
	cfg := StudyConfig{
		Seed: 42, Days: c.days, QueriesPerDay: c.perDay,
		ChurnPerDay: c.churn,
		Workers:     4,
		FetchRetry:  goldenRetry(),
	}
	if c.profile != "" {
		plan := faultsim.Profiles[c.profile]
		cfg.Faults = &plan
	}
	if c.lw {
		cfg.LimeWire = &netsim.LimeWireConfig{Seed: 42, HonestLeaves: 12, EchoHosts: 5}
	}
	if c.ft {
		cfg.OpenFT = &netsim.OpenFTConfig{Seed: 42, HonestUsers: 12}
	}
	return cfg
}

// checkGoldenCase runs the case's study once and diffs the streams named
// by their golden file suffix ("_spans", "_records") against the
// committed files. Refresh after an intentional trace change with:
//
//	go test ./internal/core/ -run TestGoldenTrace -update
func checkGoldenCase(t *testing.T, c goldenCase, suffixes ...string) {
	t.Helper()
	st, err := NewStudy(c.config())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	writers := map[string]func(io.Writer) error{
		"_spans":   func(w io.Writer) error { return obs.WriteSpansJSONL(w, st.Spans()) },
		"_records": tr.WriteJSONL,
	}
	for _, s := range suffixes {
		var buf bytes.Buffer
		if err := writers[s](&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name+s+".jsonl", buf.Bytes())
	}
}

func TestGoldenTraceLimeWireClean(t *testing.T) {
	checkGoldenCase(t, lwClean, "_records")
}

func TestGoldenTraceLimeWireCleanSpans(t *testing.T) {
	checkGoldenCase(t, lwClean, "_spans")
}

func TestGoldenTraceLimeWireCanonical(t *testing.T) {
	checkGoldenCase(t, lwCanonical, "_records")
}

func TestGoldenTraceLimeWireCanonicalSpans(t *testing.T) {
	checkGoldenCase(t, lwCanonical, "_spans")
}

func TestGoldenTraceOpenFTClean(t *testing.T) {
	checkGoldenCase(t, ftClean, "_records")
}

func TestGoldenTraceOpenFTCleanSpans(t *testing.T) {
	checkGoldenCase(t, ftClean, "_spans")
}

func TestGoldenTraceOpenFTCanonical(t *testing.T) {
	checkGoldenCase(t, ftCanonical, "_records")
}

func TestGoldenTraceOpenFTCanonicalSpans(t *testing.T) {
	checkGoldenCase(t, ftCanonical, "_spans")
}

func TestGoldenTrace(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) { checkGoldenCase(t, c, "_spans", "_records") })
	}
}

// checkGolden diffs a regenerated stream byte-for-byte against its
// committed golden. -update rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
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
		t.Fatalf("missing golden trace (regenerate with: go test ./internal/core/ -run TestGoldenTrace -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from %s (A=golden, B=regenerated):\n%s", path, firstDiffContext(string(want), string(got)))
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
