package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// These tests pin the CFG construction edge cases one source construct at a
// time: goto (including backward goto, which needs a real fixpoint),
// labeled break and continue out of nested loops, switch fallthrough,
// select with and without default, and a deferred closure writing a named
// return. Each drives a full dataflow problem (taint or lock-state) over a
// minimal fixture function, so a regression in edge wiring shows up as a
// wrong fact, not just a malformed graph.

func TestCFGBackwardGotoReachesFixpoint(t *testing.T) {
	src := `package flow
func user(peerData []byte) int {
	n := 0
	i := 0
loop:
	if i < 3 {
		n = int(peerData[0])
		i++
		goto loop
	}
	return n
}`
	// The assignment inside the loop body only reaches the return through
	// the goto back edge; a single forward pass would miss it.
	if got := flowReturnTaint(t, src, "user"); got != taintUntrusted {
		t.Fatalf("backward-goto loop return taint = %v, want untrusted", got)
	}
}

func TestCFGForwardGotoSkipsClamp(t *testing.T) {
	src := `package flow
const MaxN = 64
func user(peerData []byte) int {
	n := int(peerData[0])
	if n > MaxN {
		goto out
	}
	return n
out:
	return n
}`
	// The clamp refinement lives on the if's false edge; the goto path at
	// label out carries the unrefined (untrusted) fact and must win the
	// join... except out is only reachable via the true edge, where n is
	// known > MaxN and unclamped — so untrusted.
	if got := flowReturnTaint(t, src, "user"); got != taintUntrusted {
		t.Fatalf("goto-target return taint = %v, want untrusted", got)
	}
}

func TestCFGLabeledBreakCarriesFact(t *testing.T) {
	src := `package flow
func user(peerData []byte) int {
	n := 0
outer:
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if j == 5 {
				n = int(peerData[j])
				break outer
			}
		}
	}
	return n
}`
	// break outer must edge to the statement after the OUTER loop; an edge
	// to the inner loop's exit would still pass the assignment on, but a
	// dropped or mis-targeted edge loses the untrusted fact entirely.
	if got := flowReturnTaint(t, src, "user"); got != taintUntrusted {
		t.Fatalf("labeled-break return taint = %v, want untrusted", got)
	}
}

func TestCFGLabeledContinueCarriesFact(t *testing.T) {
	src := `package flow
func user(peerData []byte) int {
	n := 0
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			n = int(peerData[0])
			continue outer
		}
	}
	return n
}`
	// continue outer targets the outer loop's post/condition, from which
	// the loop eventually exits to the return; the fact must survive the
	// two-level hop.
	if got := flowReturnTaint(t, src, "user"); got != taintUntrusted {
		t.Fatalf("labeled-continue return taint = %v, want untrusted", got)
	}
}

func TestCFGSwitchFallthroughJoinsFacts(t *testing.T) {
	src := `package flow
func user(peerData []byte, k int) int {
	n := 0
	switch k {
	case 0:
		n = int(peerData[0])
		fallthrough
	case 1:
		return n
	}
	return 0
}`
	// The return in case 1 is reachable both directly (n still 0) and via
	// fallthrough from case 0 (n untrusted); the join must keep untrusted.
	if got := flowReturnTaint(t, src, "user"); got != taintUntrusted {
		t.Fatalf("fallthrough return taint = %v, want untrusted", got)
	}
}

func TestCFGDeferModifiesNamedReturn(t *testing.T) {
	src := `package flow
func user(peerData []byte) (n int) {
	defer func() {
		n = int(peerData[0])
	}()
	return 0
}`
	// The deferred closure overwrites the named result after every return;
	// the engine credits the closure's exit facts to the result.
	if got := flowReturnTaint(t, src, "user"); got != taintUntrusted {
		t.Fatalf("defer-modifies-named-return taint = %v, want untrusted", got)
	}
}

// runAnalyzerOnSrc runs one analyzer over a single in-memory file under the
// given import path (chosen to land in or out of internal/).
func runAnalyzerOnSrc(t *testing.T, a *Analyzer, pkgPath, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &Package{Path: pkgPath, Fset: fset, Files: []*ast.File{file}}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

const selectSrcTemplate = `package flow
import "sync"
type q struct {
	mu sync.Mutex
	ch chan int
}
func (x *q) push(v int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	select {
	case x.ch <- v:
	DEFAULT
	}
}`

func TestCFGSelectWithDefaultIsNonBlocking(t *testing.T) {
	src := strings.Replace(selectSrcTemplate, "DEFAULT", "default:", 1)
	diags := runAnalyzerOnSrc(t, BlockCheck, "p2pmalware/internal/core/flow", src)
	if len(diags) != 0 {
		t.Fatalf("select with default reported %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func TestCFGSelectWithoutDefaultBlocks(t *testing.T) {
	src := strings.Replace(selectSrcTemplate, "\tDEFAULT\n", "", 1)
	diags := runAnalyzerOnSrc(t, BlockCheck, "p2pmalware/internal/core/flow", src)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "channel send") {
		t.Fatalf("select without default reported %v, want one channel-send finding", diags)
	}
}
