// Package lint is a self-contained static-analysis framework plus the
// project's custom analyzers. It mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Reportf) on the standard library alone so the
// toolchain needs no external modules, and it exists because the study's
// headline statistics are only as trustworthy as the crawler: a month-long
// simulated crawl that reads the wall clock, races on a shared host cache,
// or crashes mid-trace on a hostile peer's truncated packet silently
// corrupts prevalence numbers.
//
// Analyzers:
//
//   - clockcheck: simulation packages must read time through
//     internal/simclock, never the raw time package.
//   - lockcheck: struct fields annotated "// guarded by <mutex>" may only
//     be touched by functions that lock that mutex on the same receiver.
//   - wirecheck: wire-format decoders must length-check a payload before
//     indexing or slicing it.
//   - errwrap: errors forwarded through fmt.Errorf must use %w so callers
//     can unwrap across package boundaries.
//   - taintcheck: interprocedural dataflow over a
//     {trusted, clamped, untrusted} lattice; wire-derived values may not
//     reach allocation sizes, copy limits, filesystem paths, or format
//     strings unless clamped against a Max* bound or laundered through a
//     `// lint:sanitizer` function. Per-function summaries (param/return
//     taint transfer, clamp and sanitizer effects) are computed to a
//     fixpoint over the whole package set in Init, so clamps applied
//     inside helpers (ReadBody, SanitizeFilename) are recognized at call
//     sites without suppressions.
//   - leakcheck: goroutines in the node/transfer layers must have an exit
//     path (done/quit channel, context, or error return) so month-long
//     simulated crawls cannot leak collectors.
//   - exhaustcheck: switches over `// lint:wireenum` types must cover
//     every declared constant or carry a default, so new message types
//     cannot be silently dropped.
//   - detercheck: determinism guard — ranging over a map directly into a
//     trace/JSONL/PRF sink, drawing from the unseeded math/rand global
//     source, and constructing wall clocks outside the sanctioned
//     ioClock/wallClock package vars are all reported.
//   - atomiccheck: a field accessed through sync/atomic anywhere in a
//     package may not also be read or written with plain loads/stores.
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
// cfg.go and flow.go): function bodies are lowered to basic blocks with
// typed edges, a worklist iteration computes per-block facts to a
// fixpoint, and diagnostics are emitted in a deterministic replay pass
// over the stable facts. taintcheck runs on the same engine.
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
	// cross-package facts (sanitizer names, wire-enum members). It must
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
	return []*Analyzer{ClockCheck, LockCheck, WireCheck, ErrWrap, TaintCheck, LeakCheck, ExhaustCheck, DeterCheck, AtomicCheck, AllocCheck, LockPath, BlockCheck, ReleaseCheck}
}

// scopeTable is the single source of truth for which internal packages the
// scope-limited analyzers cover. clockcheck, leakcheck and detercheck all
// derive their package matchers from this table, so adding a package here
// is the one and only step needed to bring it under analysis — a new
// subsystem can no longer silently escape one analyzer's hand-maintained
// list while being covered by another's.
//
// Scope meanings:
//
//	clock   — simclock discipline: no raw time.Now/Sleep/After reads.
//	leak    — long-running goroutines need exit paths.
//	deter   — determinism invariants: no unsorted map iteration into
//	          ordered sinks, no unseeded randomness, no unsanctioned
//	          wall-clock construction.
//	lock    — CFG lock-path discipline: every Lock unlocked on all
//	          return paths, no re-entrant locking.
//	block   — no blocking operation (channel, sleep, dial, foreign
//	          cond.Wait) while a mutex is held.
//	release — pooled buffers, connections, and files released on every
//	          return path or handed off.
//	span    — the package emits deterministic pipeline spans (builds
//	          obs.Span values or records transfer attempts). Claiming
//	          span implies clock discipline: clockcheck audits the
//	          package even without a clock claim, because a raw wall
//	          read feeding Span.Time would silently break the
//	          byte-identical span golden. The span hot path itself is
//	          covered by allocheck's `// lint:hotpath` annotations.
//
// Every package under internal/ must appear here and be claimed by at
// least one scope (TestEveryInternalPackageClaimed enforces it). Purely
// computational packages with no locks, goroutines, or resources still
// carry the cheap CFG scopes — the analyzers are no-ops on code without
// mutexes or acquisitions, and new concurrency added later is covered
// from the first line.
var scopeTable = []scopeRow{
	{pkg: "analysis", lock: true, block: true, release: true},
	{pkg: "archive", lock: true, block: true, release: true},
	{pkg: "bufpool", lock: true, block: true, release: true},
	{pkg: "core", clock: true, leak: true, deter: true, lock: true, block: true, release: true, span: true},
	{pkg: "dataset", deter: true, lock: true, block: true, release: true},
	{pkg: "deploy", lock: true, block: true, release: true},
	{pkg: "faultsim", clock: true, leak: true, deter: true, lock: true, block: true, release: true},
	{pkg: "filter", deter: true, lock: true, block: true, release: true},
	{pkg: "filtersvc", leak: true, deter: true, lock: true, block: true, release: true},
	{pkg: "gnutella", clock: true, leak: true, deter: true, lock: true, block: true, release: true, span: true},
	{pkg: "guid", lock: true, block: true, release: true},
	{pkg: "ipaddr", lock: true, block: true, release: true},
	{pkg: "lint", lock: true, release: true},
	{pkg: "malware", lock: true, block: true, release: true},
	{pkg: "netsim", clock: true, leak: true, deter: true, lock: true, block: true, release: true},
	{pkg: "obs", clock: true, leak: true, deter: true, lock: true, block: true, release: true, span: true},
	{pkg: "openft", clock: true, leak: true, deter: true, lock: true, block: true, release: true, span: true},
	{pkg: "p2p", clock: true, leak: true, deter: true, lock: true, block: true, release: true, span: true},
	{pkg: "pe", lock: true, block: true, release: true},
	{pkg: "scanner", deter: true, lock: true, block: true, release: true},
	{pkg: "simclock", lock: true, block: true, release: true},
	{pkg: "stats", deter: true, lock: true, block: true, release: true},
	{pkg: "workload", clock: true, deter: true, lock: true, block: true, release: true},
}

// scopeRe compiles the package matcher for one scope column of scopeTable.
func scopeRe(flag func(row scopeRow) bool) *regexp.Regexp {
	var names []string
	for _, row := range scopeTable {
		if flag(row) {
			names = append(names, regexp.QuoteMeta(row.pkg))
		}
	}
	return regexp.MustCompile(`internal/(` + strings.Join(names, "|") + `)(/|$)`)
}

// scopeRow is one scopeTable entry.
type scopeRow struct {
	pkg     string // path element directly under internal/
	clock   bool
	leak    bool
	deter   bool
	lock    bool
	block   bool
	release bool
	span    bool
}

// The derived matchers. Keeping them package-level lets fixtures under
// testdata/src/p2pmalware/internal/... exercise scope decisions exactly as
// production packages do.
var (
	clockScopeRe   = scopeRe(func(r scopeRow) bool { return r.clock })
	leakScopeRe    = scopeRe(func(r scopeRow) bool { return r.leak })
	deterScopeRe   = scopeRe(func(r scopeRow) bool { return r.deter })
	lockScopeRe    = scopeRe(func(r scopeRow) bool { return r.lock })
	blockScopeRe   = scopeRe(func(r scopeRow) bool { return r.block })
	releaseScopeRe = scopeRe(func(r scopeRow) bool { return r.release })
	spanScopeRe    = scopeRe(func(r scopeRow) bool { return r.span })
)

// clockScoped is clockcheck's package predicate: the clock column plus
// every span-emitting package — span timestamps must come from the trace
// clock, so claiming span pulls a package under clock discipline even if
// its clock cell is ever dropped.
func clockScoped(path string) bool {
	return clockScopeRe.MatchString(path) || spanScopeRe.MatchString(path)
}

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

// importName returns the local name under which file imports path, or ""
// if the file does not import it (or imports it blank or dotted).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if imp.Path.Value != `"`+path+`"` {
			continue
		}
		if imp.Name == nil {
			// Default name: last path element.
			name := path
			for i := len(path) - 1; i >= 0; i-- {
				if path[i] == '/' {
					name = path[i+1:]
					break
				}
			}
			return name
		}
		if imp.Name.Name == "_" || imp.Name.Name == "." {
			return ""
		}
		return imp.Name.Name
	}
	return ""
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
