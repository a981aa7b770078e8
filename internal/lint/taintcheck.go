package lint

import (
	"go/ast"
	"go/token"
)

// TaintCheck tracks wire-derived values through the dataflow engine in
// dataflow.go and reports when one reaches a dangerous sink unclamped.
// The analysis is interprocedural: Init computes per-function summaries
// (summary.go) to a fixpoint over the whole package set, so clamps and
// sanitizers applied inside helpers are honored at call sites and raw
// pass-through helpers do not launder taint.
//
// Sources: message payload fields (.Payload), buffered-reader methods,
// io.ReadAll/ReadFull, parameters of Parse*/Decode*/Read* functions, and
// parameters named peer*/remote*/wire*/untrusted*/hostile*/attacker*.
//
// Sinks split by what the value controls:
//
//   - allocation and copy bounds (make sizes, bufpool.GetSlab sizes,
//     io.CopyN / io.LimitReader limits, Buffer.Grow) accept a clamped
//     value — one compared against a Max* constant, literal, or len()
//     bound before use;
//   - filesystem paths (filepath.Join, os.Create and friends) and format
//     strings (fmt.Printf-family) demand a fully trusted value, which only
//     a `// lint:sanitizer`-annotated function produces: bounding the
//     length of "../../etc/passwd" does not make it a safe path.
var TaintCheck = &Analyzer{
	Name: "taintcheck",
	Doc:  "wire-derived values must be clamped or sanitized before reaching allocation sizes, copy limits, filesystem paths, or format strings",
	Init: taintInit,
	Run:  taintRun,
}

// taintSanitizers is rebuilt by taintInit on every Run: the unqualified
// names of `// lint:sanitizer` functions anywhere in the package set.
var taintSanitizers map[string]bool

// taintSummaries is rebuilt by taintInit on every Run: the interprocedural
// per-function transfer facts (summary.go) for the whole package set.
var taintSummaries map[string]*funcSummary

func taintInit(pkgs []*Package) error {
	taintSanitizers = collectSanitizers(pkgs)
	taintSummaries = computeSummaries(pkgs, taintSanitizers)
	return nil
}

// osPathFuncs maps os package functions to the indices of their path
// arguments.
var osPathFuncs = map[string][]int{
	"Create": {0}, "Open": {0}, "OpenFile": {0}, "Remove": {0},
	"RemoveAll": {0}, "Mkdir": {0}, "MkdirAll": {0}, "ReadFile": {0},
	"WriteFile": {0}, "Rename": {0, 1},
}

// fmtFormatFuncs maps fmt/log formatting functions to their format-string
// argument index.
var fmtFormatFuncs = map[string]int{
	"Printf": 0, "Sprintf": 0, "Errorf": 0, "Fprintf": 1,
	"Fatalf": 0, "Panicf": 0, "Logf": 0,
}

func taintRun(pass *Pass) error {
	// Loop bodies are interpreted twice for fixpoint, so the same sink can
	// fire twice; report each position once.
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}

	checkCall := func(f *funcFlow, call *ast.CallExpr) {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "make" {
				// make(T, len) / make(T, len, cap): every size argument.
				for _, a := range call.Args[1:] {
					if f.eval(a) == taintUntrusted {
						report(a.Pos(), "untrusted length %q reaches make without clamping against a Max* bound", exprText(a))
					}
				}
			}
		case *ast.SelectorExpr:
			pkg := ""
			if id, ok := fun.X.(*ast.Ident); ok {
				pkg = id.Name
			}
			name := fun.Sel.Name
			switch {
			case pkg == "io" && name == "CopyN" && len(call.Args) == 3:
				if f.eval(call.Args[2]) == taintUntrusted {
					report(call.Args[2].Pos(), "untrusted limit %q reaches io.CopyN without clamping against a Max* bound", exprText(call.Args[2]))
				}
			case pkg == "io" && name == "LimitReader" && len(call.Args) == 2:
				if f.eval(call.Args[1]) == taintUntrusted {
					report(call.Args[1].Pos(), "untrusted limit %q reaches io.LimitReader without clamping against a Max* bound", exprText(call.Args[1]))
				}
			case pkg == "bufpool" && name == "GetSlab" && len(call.Args) == 1:
				// The pooled sized get allocates past its largest class.
				if f.eval(call.Args[0]) == taintUntrusted {
					report(call.Args[0].Pos(), "untrusted length %q reaches bufpool.GetSlab without clamping against a Max* bound", exprText(call.Args[0]))
				}
			case name == "Grow" && len(call.Args) == 1:
				if f.eval(call.Args[0]) == taintUntrusted {
					report(call.Args[0].Pos(), "untrusted size %q reaches Grow without clamping against a Max* bound", exprText(call.Args[0]))
				}
			case pkg == "filepath" && name == "Join":
				for _, a := range call.Args {
					if f.eval(a) != taintTrusted {
						report(a.Pos(), "unsanitized wire value %q used as filepath.Join element; pass it through a lint:sanitizer function", exprText(a))
					}
				}
			case pkg == "os" && len(osPathFuncs[name]) > 0:
				for _, idx := range osPathFuncs[name] {
					if idx < len(call.Args) && f.eval(call.Args[idx]) != taintTrusted {
						report(call.Args[idx].Pos(), "unsanitized wire value %q used as os.%s path; pass it through a lint:sanitizer function", exprText(call.Args[idx]), name)
					}
				}
			case (pkg == "fmt" || pkg == "log"):
				if idx, ok := fmtFormatFuncs[name]; ok && idx < len(call.Args) {
					if f.eval(call.Args[idx]) != taintTrusted {
						report(call.Args[idx].Pos(), "unsanitized wire value %q used as a format string; use %%s with a constant format instead", exprText(call.Args[idx]))
					}
				}
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			flow := &funcFlow{
				pass:       pass,
				fn:         fn,
				sanitizers: taintSanitizers,
				summaries:  taintSummaries,
				onCall:     checkCall,
			}
			flow.run()
		}
	}
	return nil
}

// exprText renders a small expression for diagnostics; compound
// expressions fall back to their leading variable path.
func exprText(e ast.Expr) string {
	if path := selectorPath(e); path != "" {
		return path
	}
	var paths []string
	collectValuePaths(e, &paths)
	if len(paths) > 0 {
		return paths[0]
	}
	return "value"
}
