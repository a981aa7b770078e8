// Package lint is a self-contained static-analysis framework plus the
// project's custom analyzers. It mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Reportf) on the standard library alone so the
// toolchain needs no external modules. Each analyzer stays only while it
// catches a defect the tests miss: DESIGN.md ("Static analysis") records,
// per analyzer, the invariant, the sites that rely on it, and one mutation
// of the program that changes its behaviour, that the analyzer flags, and
// that passes every test and gate.
//
// Analyzers:
//
//   - lockcheck: struct fields annotated "// guarded by <mutex>" may only
//     be touched by functions that lock that mutex on the same receiver.
//   - taintcheck: interprocedural dataflow over a
//     {trusted, clamped, untrusted} lattice; wire-derived values may not
//     reach allocation sizes, copy limits, filesystem paths, or format
//     strings unless clamped against a Max* bound or laundered through a
//     `// lint:sanitizer` function. Per-function summaries (param/return
//     taint transfer, clamp and sanitizer effects) are computed to a
//     fixpoint over the whole package set in Init, so clamps applied
//     inside helpers (ReadBody, SanitizeFilename) are recognized at call
//     sites without suppressions.
//   - allocheck: functions annotated `// lint:hotpath` must stay free of
//     heap-escaping composite literals, fmt/log calls, string
//     concatenation, and closures, keeping AllocsPerRun == 0 paths honest.
//   - lockpath: CFG-based lock discipline — every Lock/RLock released on
//     all return paths (deferred unlocks credited path-sensitively), and
//     no re-entrant or upgrading re-acquisition of a held mutex.
//   - blockcheck: no channel operation, sleep, network dial, or Wait on a
//     foreign sync.Cond while a mutex is held.
//   - releasecheck: pooled buffers (bufpool), dialed/accepted connections,
//     and opened files released on every return path, with defer and
//     ownership hand-off (return, send, store, wrap) recognized.
//
// The last three run on a shared control-flow-graph dataflow engine (see
// cfg.go and flow.go) over every package under internal/: function bodies
// are lowered to basic blocks with typed edges, a worklist iteration
// computes per-block facts to a fixpoint, and diagnostics are emitted in a
// deterministic replay pass over the stable facts. taintcheck runs on the
// same engine.
//
// A finding can be suppressed with `// lint:allow <analyzer> <reason>` on
// the same line or the line above.
//
// The cmd/p2plint binary runs the whole suite over the repository and is
// part of the CI merge gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	Name string
	// Doc is the one-paragraph description shown by the driver.
	Doc string
	// Init, if set, is called once per Run over the full package set
	// before any per-package pass, so an analyzer can gather
	// cross-package facts (sanitizer names, function summaries). It must
	// rebuild its state from scratch each call: tests invoke Run many
	// times with different package sets.
	Init func(pkgs []*Package) error
	// Run inspects a package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Package is one parsed (not type-checked) Go package ready for analysis.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
}

// Pass carries one analyzer's view of one package, mirroring
// go/analysis.Pass.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Path is the package import path under analysis.
	Path string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the package's parsed source files.
	Files []*ast.File

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced it.
	Analyzer string
	// Message describes the finding.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the findings
// sorted by position. Findings on a line carrying (or directly below) a
// `// lint:allow <analyzer>` comment are suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if a.Init == nil {
			continue
		}
		if err := a.Init(pkgs); err != nil {
			return nil, fmt.Errorf("lint: %s init: %w", a.Name, err)
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := allowLines(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files, diags: &pkgDiags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, d := range pkgDiags {
			if allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{LockCheck, TaintCheck, AllocCheck, LockPath, BlockCheck, ReleaseCheck}
}

// internalScoped is the CFG analyzers' package predicate: every package
// under internal/, fixtures included; commands and example.com fixtures
// are out of scope.
func internalScoped(path string) bool { return strings.Contains(path, "internal/") }

// allowKey addresses one suppressed (file, line, analyzer) cell.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowRe matches suppression comments: `// lint:allow <analyzer> [reason]`.
var allowRe = regexp.MustCompile(`lint:allow\s+([a-z]+)`)

// allowLines collects the suppressions in a package. A comment suppresses
// the named analyzer on its own line and on the line below it, covering
// both trailing-comment and comment-above styles.
func allowLines(pkg *Package) map[allowKey]bool {
	out := make(map[allowKey]bool)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[allowKey{pos.Filename, pos.Line, m[1]}] = true
				out[allowKey{pos.Filename, pos.Line + 1, m[1]}] = true
			}
		}
	}
	return out
}

// selectorPath renders a chain of identifier selections ("s", "s.node",
// "s.node.mu") as a dotted string, or "" if e is not a pure identifier
// chain (calls, indexes and parens disqualify it).
func selectorPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := selectorPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	default:
		return ""
	}
}
