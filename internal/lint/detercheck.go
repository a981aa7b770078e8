package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DeterCheck guards the repository's byte-identical-replay invariant: the
// same seed must produce the same JSONL trace, the same dataset rows, and
// the same fault schedule. Three failure modes break that silently:
//
//  1. Ranging over a map directly into an ordered sink. Go randomizes map
//     iteration order, so a `for k := range m { tracer.Emit(...) }` loop
//     emits a differently-ordered trace every run. The fix is the
//     collect-sort-range idiom: pull the keys into a slice, sort it, range
//     the slice — which this check accepts because the sorted slice, not
//     the map, is what the loop ranges over.
//  2. Drawing from the unseeded math/rand global source. Global draws mix
//     all call sites into one stream and (since Go 1.20) auto-seed from the
//     OS; runs stop replaying. Constructing a local, explicitly seeded
//     source (rand.New(rand.NewPCG(seed, seq))) is the sanctioned form.
//  3. Constructing a wall clock (simclock.Real{}) anywhere except the
//     package-level ioClock/wallClock escape hatches. Those two vars are
//     the audited wall-clock surface — tests swap them for virtual clocks;
//     an inline Real{} cannot be swapped and leaks nondeterminism into the
//     trace clock. This extends clockcheck, which only sees raw time.*
//     calls, to the project's own clock abstraction.
var DeterCheck = &Analyzer{
	Name: "detercheck",
	Doc: "determinism guard: no map iteration into ordered sinks, no unseeded math/rand " +
		"global draws, no wall-clock construction outside the package-level ioClock/wallClock vars",
	Run: deterRun,
}

// deterSinks are the order-sensitive emission calls: trace events, JSONL
// and CSV dataset rows, and PRF keying, where call order is output order
// (or, for the PRF, where iteration order decides which draw each key
// gets when attempts share a counter).
var deterSinks = map[string]bool{
	"Emit": true, "EmitAt": true, "AppendEvent": true,
	"WriteEventsJSONL": true, "WriteJSONL": true, "AppendRecord": true, "WriteCSV": true,
	"prf": true,
}

// sanctionedClockVars are the only package-level names allowed to hold a
// freshly constructed wall clock.
var sanctionedClockVars = map[string]bool{
	"ioClock":   true,
	"wallClock": true,
}

func deterRun(pass *Pass) error {
	if !deterScopeRe.MatchString(pass.Path) {
		return nil
	}
	mapNames := collectMapNames(pass.Files)
	for _, file := range pass.Files {
		deterCheckMapRanges(pass, file, mapNames)
		deterCheckGlobalRand(pass, file)
		deterCheckClockLits(pass, file)
	}
	return nil
}

// collectMapNames gathers the identifiers and struct-field names that are
// map-typed anywhere in the package. Without type information the analysis
// is name-based: a declaration `var seen map[string]int`, an assignment
// `counts := make(map[string]int)` or `m := map[K]V{...}`, and a struct
// field `pending map[string]entry` all register their (final path element)
// name as a map.
func collectMapNames(files []*ast.File) map[string]bool {
	names := make(map[string]bool)
	record := func(e ast.Expr) {
		if path := selectorPath(e); path != "" {
			parts := strings.Split(path, ".")
			names[parts[len(parts)-1]] = true
		}
	}
	isMapExpr := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
				_, isMap := x.Args[0].(*ast.MapType)
				return isMap
			}
		case *ast.CompositeLit:
			_, isMap := x.Type.(*ast.MapType)
			return isMap
		}
		return false
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ValueSpec:
				if _, ok := x.Type.(*ast.MapType); ok {
					for _, name := range x.Names {
						names[name.Name] = true
					}
				}
				for i, v := range x.Values {
					if isMapExpr(v) && i < len(x.Names) {
						names[x.Names[i].Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if isMapExpr(rhs) && i < len(x.Lhs) {
						record(x.Lhs[i])
					}
				}
			case *ast.Field:
				if _, ok := x.Type.(*ast.MapType); ok {
					for _, name := range x.Names {
						names[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return names
}

// deterCheckMapRanges reports range-over-map loops whose body reaches an
// order-sensitive sink.
func deterCheckMapRanges(pass *Pass, file *ast.File, mapNames map[string]bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		loop, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		path := selectorPath(loop.X)
		if path == "" {
			return true
		}
		parts := strings.Split(path, ".")
		if !mapNames[parts[len(parts)-1]] {
			return true
		}
		ast.Inspect(loop.Body, func(inner ast.Node) bool {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if deterSinks[name] {
				pass.Reportf(call.Pos(),
					"%s called while ranging over map %q: map order is randomized, so emitted order changes run to run; collect the keys, sort them, and range the sorted slice",
					name, path)
			}
			return true
		})
		return true
	})
}

// isRandConstructor reports whether a math/rand entry point builds a local
// source or generator (New, NewSource, NewPCG, NewZipf, ...); everything
// else on the package selector draws from (or reconfigures) the shared
// global stream.
func isRandConstructor(name string) bool {
	return strings.HasPrefix(name, "New")
}

// deterCheckGlobalRand reports draws from the math/rand global source.
func deterCheckGlobalRand(pass *Pass, file *ast.File) {
	randName := importName(file, "math/rand")
	if v2 := importName(file, "math/rand/v2"); v2 != "" {
		if v2 == "v2" {
			// importName guesses the last path element; the real default
			// name of math/rand/v2 is the package name, rand.
			v2 = "rand"
		}
		randName = v2
	}
	if randName == "" {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != randName || isRandConstructor(sel.Sel.Name) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s.%s draws from the global math/rand stream, which is auto-seeded and shared; build a seeded local source (rand.New(rand.NewPCG(seed, seq))) so runs replay",
			randName, sel.Sel.Name)
		return true
	})
}

// deterCheckClockLits reports simclock.Real{} construction outside the
// sanctioned package-level ioClock/wallClock vars.
func deterCheckClockLits(pass *Pass, file *ast.File) {
	simclockName := importName(file, "p2pmalware/internal/simclock")
	if simclockName == "" {
		return
	}
	// Collect the positions of Real{} literals sitting directly in a
	// sanctioned package-level var declaration.
	sanctioned := make(map[token.Pos]bool)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			allowed := len(vs.Names) > 0
			for _, name := range vs.Names {
				if !sanctionedClockVars[name.Name] {
					allowed = false
				}
			}
			if !allowed {
				continue
			}
			for _, v := range vs.Values {
				if lit := realClockLit(v, simclockName); lit != nil {
					sanctioned[lit.Pos()] = true
				}
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || realClockLit(lit, simclockName) == nil || sanctioned[lit.Pos()] {
			return true
		}
		pass.Reportf(lit.Pos(),
			"%s.Real{} constructed outside the package-level ioClock/wallClock vars: inline wall clocks cannot be swapped for virtual ones in tests, so traces stop replaying",
			simclockName)
		return true
	})
}

// realClockLit returns e as a simclock.Real composite literal, or nil.
func realClockLit(e ast.Expr, simclockName string) *ast.CompositeLit {
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	sel, ok := lit.Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Real" {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != simclockName {
		return nil
	}
	return lit
}
