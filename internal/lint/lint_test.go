package lint

import (
	"path/filepath"
	"testing"
)

// runFixture asserts that an analyzer's diagnostics over a fixture package
// exactly match its `// want` annotations.
func runFixture(t *testing.T, a *Analyzer, pkgPath string) {
	t.Helper()
	problems, err := Fixture(".", a, pkgPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkgPath, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestLockCheckFixture(t *testing.T) {
	runFixture(t, LockCheck, "example.com/lockfix")
}

func TestTaintCheckFixture(t *testing.T) {
	runFixture(t, TaintCheck, "example.com/taintfix")
}

func TestTaintCheckInterprocFixture(t *testing.T) {
	runFixture(t, TaintCheck, "example.com/interproc")
}

func TestAllocCheckFixture(t *testing.T) {
	runFixture(t, AllocCheck, "example.com/allocfix")
}

func TestLockPathFixture(t *testing.T) {
	runFixture(t, LockPath, "p2pmalware/internal/core/lockpathfix")
}

func TestBlockCheckFixture(t *testing.T) {
	runFixture(t, BlockCheck, "p2pmalware/internal/core/blockfix")
}

func TestReleaseCheckFixture(t *testing.T) {
	runFixture(t, ReleaseCheck, "p2pmalware/internal/gnutella/releasefix")
}

// The CFG analyzers cover every package under internal/; a fixture
// outside internal/ must stay silent even though it contains violations
// of all three invariants.
func TestCFGAnalyzersIgnoreUnscopedPackages(t *testing.T) {
	runFixture(t, LockPath, "example.com/lockfree")
	runFixture(t, BlockCheck, "example.com/lockfree")
	runFixture(t, ReleaseCheck, "example.com/lockfree")
}

// TestFixtureRunnerDetectsMisses guards the harness itself: an analyzer
// that reports nothing must fail a fixture that expects a diagnostic.
func TestFixtureRunnerDetectsMisses(t *testing.T) {
	silent := &Analyzer{Name: "silent", Doc: "reports nothing", Run: func(*Pass) error { return nil }}
	problems, err := Fixture(".", silent, "example.com/lockfix")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 {
		t.Fatal("silent analyzer passed a fixture with want annotations; the runner is broken")
	}
}

// TestRepositoryIsClean runs the full suite over the whole repository —
// the same gate cmd/p2plint enforces in CI. Any finding here is a build
// breaker by design.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; loader is missing the tree", len(pkgs), root)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestLoadSinglePackagePattern(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/lint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if pkgs[0].Path != "p2pmalware/internal/lint" {
		t.Fatalf("got package path %q", pkgs[0].Path)
	}
	if len(pkgs[0].Files) == 0 {
		t.Fatal("package has no files")
	}
}
