package main

import (
	"bytes"
	"errors"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/dataset"
)

// runMainEnv, when set, makes the test binary run p2pstudy's main instead
// of the tests, so a test can run the command and see its exit status.
const runMainEnv = "P2PSTUDY_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rejectFlag runs p2pstudy with args after a one-query study's flags and
// checks that it exits 2 with a message that names flagName, and that it
// wrote no trace.
func rejectFlag(t *testing.T, flagName string, args ...string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	base := []string{"-quiet", "-network", "openft", "-days", "1", "-queries-per-day", "1", "-out", out}
	cmd := exec.Command(os.Args[0], append(base, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	msg, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("p2pstudy %v: err = %v, want exit status 2; output:\n%s", args, err, msg)
	}
	if want := "p2pstudy: " + flagName + " "; !strings.HasPrefix(string(msg), want) {
		t.Errorf("p2pstudy %v: output %q, want it to start with %q", args, msg, want)
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("p2pstudy %v: wrote a trace (stat err = %v)", args, err)
	}
}

func TestRejectsDaysBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-3"} {
		rejectFlag(t, "-days", "-days", v)
	}
}

func TestRejectsQueriesPerDayBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-4"} {
		rejectFlag(t, "-queries-per-day", "-queries-per-day", v)
	}
}

func TestRejectsChurnOutsideUnitInterval(t *testing.T) {
	for _, v := range []string{"7", "-0.1", "NaN"} {
		rejectFlag(t, "-churn", "-churn", v)
	}
}

func TestRejectsFakeFilesOutsideUnitInterval(t *testing.T) {
	for _, v := range []string{"-3", "1.5", "NaN"} {
		rejectFlag(t, "-fake-files", "-fake-files", v)
	}
}

func TestRejectsNegativeWorkers(t *testing.T) {
	rejectFlag(t, "-workers", "-workers", "-2")
}

func TestRejectsNegativeFilterdK(t *testing.T) {
	rejectFlag(t, "-filterd-k", "-filterd-k", "-1")
}

// TestCheckFlagsAcceptsBounds keeps the ends of every range, and 0 for
// -workers (16 transfers) and -filterd-k (every malicious size).
func TestCheckFlagsAcceptsBounds(t *testing.T) {
	for _, c := range []struct{ churn, fake float64 }{{0, 0}, {1, 1}} {
		if err := checkFlags(1, 1, 0, 0, c.churn, c.fake); err != nil {
			t.Errorf("checkFlags(days 1, queries 1, workers 0, k 0, churn %v, fake %v) = %v", c.churn, c.fake, err)
		}
	}
}

// TestFailedRunKeepsItsProfile: a run that fails after its profiles have
// started exits 1 and still writes them, so the run one most wants
// profiled leaves a complete CPU profile, not an empty file. A pprof CPU
// profile is gzip-compressed.
func TestFailedRunKeepsItsProfile(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-quiet", "-network", "openft", "-days", "1", "-queries-per-day", "1",
		"-out", filepath.Join(dir, "trace.jsonl"), "-profile", "cpu", "-profile-dir", dir,
		"-faults", filepath.Join(dir, "missing.json"))
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	msg, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("p2pstudy with a missing fault plan: err = %v, want exit status 1; output:\n%s", err, msg)
	}
	prof, err := os.ReadFile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(prof, []byte{0x1f, 0x8b}) {
		t.Fatalf("cpu.pprof holds %d bytes and does not begin with the gzip magic; output:\n%s", len(prof), msg)
	}
}

// TestPushBlockListGivesUpOnASilentDaemon: a filterd that takes the block
// list and never answers must not keep the finished study from exiting.
// The push fails with a timeout once filterdTimeout has passed.
func TestPushBlockListGivesUpOnASilentDaemon(t *testing.T) {
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-done }))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(done) }) // before srv.Close, which waits for the handler
	tr := dataset.NewTrace()
	tr.Add(dataset.ResponseRecord{Network: dataset.LimeWire, Size: 96256, Malware: "W32.Kratos.C"})
	errc := make(chan error, 1)
	go func() { errc <- pushBlockList(srv.URL, tr, []dataset.Network{dataset.LimeWire}, 10) }()
	select {
	case err := <-errc:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("push to a daemon that never answers: err = %v, want a timeout", err)
		}
	case <-time.After(4 * filterdTimeout):
		t.Fatalf("push to a daemon that never answers still waiting after %v", 4*filterdTimeout)
	}
}
