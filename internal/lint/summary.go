package lint

import (
	"go/ast"
)

// This file promotes the dataflow engine from intraprocedural to
// interprocedural. For every function declaration in the analyzed package
// set, a funcSummary records how taint moves from the receiver and each
// parameter to the return values, plus any taint the function produces on
// its own (stream reads, .Payload access). Summaries are computed to a
// fixpoint over the whole package set in Analyzer.Init and consulted at
// call sites, so a clamp or sanitizer applied inside a helper (ReadBody
// capping a peer length, SanitizeFilename laundering a name) is recognized
// in its callers without `// lint:allow` suppressions — and a helper that
// forwards wire bytes raw no longer launders them by accident.
//
// Summaries are keyed by unqualified function name, like sanitizer facts:
// the loader works on parsed (untyped) ASTs, so call targets resolve by
// name. Same-name declarations (Encode on every message type, ReadFrame
// on both link codecs) join pointwise, which is conservative in the
// "facts only move up the lattice" direction. Calls through a known
// standard-library package selector never consult summaries.

// funcSummary is one function's taint-transfer facts.
type funcSummary struct {
	// base is the return taint when every input is trusted: intrinsic
	// sources inside the body (socket reads, payload fields) surface here.
	base taint
	// recv is the return taint when only the receiver is untrusted: the
	// receiver-to-return transfer for methods (taintTrusted = no flow,
	// taintClamped = flows clamped, taintUntrusted = flows raw).
	recv taint
	// params holds the same transfer fact per flattened parameter.
	params []taint
}

// join folds other into s pointwise, padding params to the longer list,
// and reports whether s changed.
func (s *funcSummary) join(other funcSummary) bool {
	changed := false
	if t := joinTaint(s.base, other.base); t != s.base {
		s.base, changed = t, true
	}
	if t := joinTaint(s.recv, other.recv); t != s.recv {
		s.recv, changed = t, true
	}
	for len(s.params) < len(other.params) {
		s.params = append(s.params, taintTrusted)
	}
	for i, t := range other.params {
		if j := joinTaint(s.params[i], t); j != s.params[i] {
			s.params[i], changed = j, true
		}
	}
	return changed
}

// apply evaluates a call against the summary: the result is base joined
// with each input's taint pushed through its transfer fact (a meet — raw
// transfer passes the input unchanged, clamping transfer caps it at
// clamped, no-flow transfer drops it).
func (s *funcSummary) apply(recvTaint taint, argTaints []taint) taint {
	t := joinTaint(s.base, meetTaint(recvTaint, s.recv))
	for i, at := range argTaints {
		pi := i
		if pi >= len(s.params) {
			if len(s.params) == 0 {
				break
			}
			// Extra args feed the final (variadic) parameter.
			pi = len(s.params) - 1
		}
		t = joinTaint(t, meetTaint(at, s.params[pi]))
	}
	return t
}

// maxSummaryRounds bounds the fixpoint iteration. Each summary cell can
// only rise twice in a height-two lattice, so real code converges in two
// or three rounds; the cap is a safety net, not a tuning knob.
const maxSummaryRounds = 8

// computeSummaries builds the interprocedural fact table for the package
// set. Each round re-interprets every function body against the current
// table and joins the result in; facts only move up the lattice, so the
// iteration converges.
func computeSummaries(pkgs []*Package, sanitizers map[string]bool) map[string]*funcSummary {
	var decls []*ast.FuncDecl
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
					decls = append(decls, fn)
				}
			}
		}
	}
	// Pre-populate every declared name at lattice bottom. The optimistic
	// start matters: a callee not yet summarized must read as "no effect",
	// not fall back to the pessimistic name heuristics — a heuristic
	// overshoot joined into a caller's summary in round one could never be
	// lowered again.
	sums := make(map[string]*funcSummary, len(decls))
	for _, fn := range decls {
		if sums[fn.Name.Name] == nil {
			sums[fn.Name.Name] = &funcSummary{}
		}
	}
	// Each function is reinterpreted once per input per round; its CFG
	// never changes, so build it once.
	graphs := make(map[*ast.FuncDecl]*cfgGraph, len(decls))
	for _, fn := range decls {
		graphs[fn] = buildCFG(fn.Body)
	}
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fn := range decls {
			ns := summarizeFunc(fn, sanitizers, sums, graphs[fn])
			if sums[fn.Name.Name].join(ns) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// summarizeFunc measures one function's transfer facts against the current
// summary table: one interpretation with everything trusted for the base,
// then one per input with that input alone seeded untrusted.
func summarizeFunc(fn *ast.FuncDecl, sanitizers map[string]bool, sums map[string]*funcSummary, graph *cfgGraph) funcSummary {
	out := funcSummary{base: returnTaintWith(fn, sanitizers, sums, "", graph)}
	if recv := receiverName(fn); recv != "" {
		out.recv = transferFact(fn, sanitizers, sums, recv, out.base, graph)
	}
	for _, p := range paramNames(fn.Type) {
		fact := taintTrusted
		if p != "_" && p != "" {
			fact = transferFact(fn, sanitizers, sums, p, out.base, graph)
		}
		out.params = append(out.params, fact)
	}
	return out
}

// transferFact isolates one input's contribution to the return taint: the
// return taint with that input untrusted, floored at the base so intrinsic
// sources don't masquerade as parameter flow, then inverted into a
// transfer fact.
func transferFact(fn *ast.FuncDecl, sanitizers map[string]bool, sums map[string]*funcSummary, input string, base taint, graph *cfgGraph) taint {
	t := returnTaintWith(fn, sanitizers, sums, input, graph)
	// The measured taint includes base effects; the transfer is whatever
	// rises above them. If seeding the input did not raise the result, the
	// input does not flow to the return.
	if t <= base {
		return taintTrusted
	}
	return t
}

// returnTaintWith interprets fn's body with the named input (receiver or
// parameter) seeded untrusted — or nothing seeded when input is "" — and
// returns the joined taint of every return site.
func returnTaintWith(fn *ast.FuncDecl, sanitizers map[string]bool, sums map[string]*funcSummary, input string, graph *cfgGraph) taint {
	seeds := map[string]taint{}
	if input != "" {
		seeds[input] = taintUntrusted
	}
	flow := &funcFlow{
		fn:         fn,
		sanitizers: sanitizers,
		summaries:  sums,
		seedParams: seeds,
		graph:      graph,
	}
	flow.run()
	return flow.ret
}

// receiverName returns the receiver identifier of a method declaration, or
// "" for plain functions and anonymous receivers.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	name := fn.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// paramNames flattens a signature's parameter identifiers in declaration
// order ("" for anonymous parameters, which cannot flow anywhere).
func paramNames(ft *ast.FuncType) []string {
	if ft.Params == nil {
		return nil
	}
	var names []string
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			names = append(names, "")
			continue
		}
		for _, name := range field.Names {
			names = append(names, name.Name)
		}
	}
	return names
}

// stdlibRoots are selector roots that must never resolve to repository
// summaries: calls like strings.Contains or io.Copy share unqualified
// names with repo helpers, and attributing repo transfer facts to them
// would corrupt call-site results in both directions.
var stdlibRoots = map[string]bool{
	"io": true, "os": true, "fmt": true, "log": true, "strings": true,
	"bytes": true, "strconv": true, "binary": true, "hex": true,
	"base32": true, "base64": true, "utf8": true, "time": true,
	"sort": true, "json": true, "rand": true, "filepath": true,
	"path": true, "net": true, "http": true, "bufio": true,
	"errors": true, "math": true, "heap": true, "flag": true,
	"sync": true, "atomic": true, "regexp": true, "bits": true,
	"slices": true, "maps": true, "hash": true, "fnv": true,
	"md5": true, "sha1": true, "crypto": true, "unicode": true,
}
