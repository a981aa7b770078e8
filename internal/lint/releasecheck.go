package lint

import (
	"go/ast"
	"go/token"
	"regexp"
)

// ReleaseCheck verifies that acquired resources are released on every
// return path. The crawler's resources are finite and long-lived: pooled
// buffers and readers (bufpool), dialed connections, accepted sockets, and
// opened files. A leak on an error path is invisible in short tests but
// starves a month-long simulated crawl — the pool degrades to plain
// allocation, or the process runs out of descriptors mid-study.
//
// Tracked acquisitions (assigned to a plain local variable):
//
//   - bufpool.GetBuffer / bufpool.GetReader
//   - pool.Get() with no arguments on a *pool-suffixed receiver
//   - Dial / DialContext / DialTimeout / Accept (any receiver)
//   - os.Open / os.OpenFile / os.Create
//
// A resource is released by Close, by bufpool.PutBuffer/PutReader, or by
// Put on the pool — directly, or in a defer (including inside a deferred
// closure), credited only on paths that executed the defer. Ownership
// transfers are recognized and end tracking: returning the value,
// sending it on a channel, storing it into a struct field or element, or
// passing it to a constructor-shaped call (New*/from/wrap) that wraps it.
// Returning the result of another call the value was passed to
// (`return t.Exchange(c, …)`) is not a transfer: the call used the value,
// and the caller gets back only what the call returned.
// For the `v, err := Acquire()` shape, the error path is refined at the
// branch: on the err != nil edge the acquisition failed and nothing needs
// releasing.
//
// Only definite leaks report: a value held on every path into a return.
// Paths that merge a released state with a held one stay silent — the
// held-side early return already reported at its own exit edge.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc: "CFG check that pooled buffers, connections, and files are released " +
		"on every return path or explicitly handed off",
	Run: releaseCheckRun,
}

// resState is one tracked value's abstract state.
type resState uint8

const (
	rsNone resState = iota
	// rsHeld: acquired and unreleased on every incoming path.
	rsHeld
	// rsMaybe: held on some incoming paths only; never reported.
	rsMaybe
)

// resInfo is the per-variable fact payload.
type resInfo struct {
	state resState
	kind  string    // "pooled buffer", "connection", "file"
	pos   token.Pos // acquisition site, for the diagnostic
	errOf string    // error variable bound at acquisition, "" if none
}

// relFact is the resource dataflow fact: tracked variables plus pending
// deferred releases (joined by intersection, like deferred unlocks).
type relFact struct {
	held     map[string]resInfo
	deferred map[string]bool
}

func newRelFact() *relFact {
	return &relFact{held: map[string]resInfo{}, deferred: map[string]bool{}}
}

func (f *relFact) clone() *relFact {
	out := &relFact{
		held:     make(map[string]resInfo, len(f.held)),
		deferred: make(map[string]bool, len(f.deferred)),
	}
	for k, v := range f.held {
		out.held[k] = v
	}
	for k := range f.deferred {
		out.deferred[k] = true
	}
	return out
}

// join merges other into f; mismatched states demote to rsMaybe.
func (f *relFact) join(other *relFact) bool {
	changed := false
	for k, ov := range other.held {
		v, ok := f.held[k]
		switch {
		case !ok:
			nv := ov
			nv.state = rsMaybe
			f.held[k] = nv
			changed = true
		case v.state != ov.state && v.state != rsMaybe:
			v.state = rsMaybe
			f.held[k] = v
			changed = true
		}
	}
	for k, v := range f.held {
		if _, ok := other.held[k]; !ok && v.state != rsMaybe {
			v.state = rsMaybe
			f.held[k] = v
			changed = true
		}
	}
	for k := range f.deferred {
		if !other.deferred[k] {
			delete(f.deferred, k)
			changed = true
		}
	}
	return changed
}

// acquireKind classifies a call expression as a resource acquisition,
// returning the resource kind or "".
var (
	poolRecvRe      = regexp.MustCompile(`(?i)pool$`)
	dialAcquireRe   = regexp.MustCompile(`^(Dial|DialContext|DialTimeout|Accept)$`)
	constructorRe   = regexp.MustCompile(`(?i)^new|from|wrap`)
	osOpenFuncs     = map[string]bool{"Open": true, "OpenFile": true, "Create": true}
	bufpoolGetFuncs = map[string]bool{"GetBuffer": true, "GetReader": true}
	bufpoolPutFuncs = map[string]bool{"PutBuffer": true, "PutReader": true}
)

func acquireKind(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	recv := selectorPath(sel.X)
	switch {
	case recv == "bufpool" && bufpoolGetFuncs[name]:
		return "pooled buffer"
	case name == "Get" && len(call.Args) == 0 && poolRecvRe.MatchString(recv):
		return "pooled value"
	case dialAcquireRe.MatchString(name):
		return "connection"
	case recv == "os" && osOpenFuncs[name]:
		return "file"
	}
	return ""
}

// releasedVar returns the variable a call expression releases, or "".
func releasedVar(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	recv := selectorPath(sel.X)
	switch {
	case name == "Close" && len(call.Args) == 0:
		return recv
	case recv == "bufpool" && bufpoolPutFuncs[name] && len(call.Args) >= 1:
		return selectorPath(call.Args[0])
	case name == "Put" && poolRecvRe.MatchString(recv) && len(call.Args) == 1:
		return selectorPath(call.Args[0])
	}
	return ""
}

// deferredReleases lists the variables a defer statement releases, directly
// or inside a deferred closure.
func deferredReleases(d *ast.DeferStmt) []string {
	if v := releasedVar(d.Call); v != "" {
		return []string{v}
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v := releasedVar(call); v != "" {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

func releaseCheckRun(pass *Pass) error {
	if !internalScoped(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			releaseCheckBody(pass, body)
		})
	}
	return nil
}

func releaseCheckBody(pass *Pass, body *ast.BlockStmt) {
	g := buildCFG(body)
	reporting := false
	spec := &flowSpec[*relFact]{
		entry:  newRelFact,
		bottom: newRelFact,
		transfer: func(f *relFact, s ast.Stmt, blk *cfgBlock) *relFact {
			relStep(f, s)
			return f
		},
		evalExpr: func(f *relFact, e ast.Expr) *relFact {
			relScanExpr(f, e)
			return f
		},
		edge: func(f *relFact, e *cfgEdge) *relFact {
			relEdge(pass, f, e, reporting)
			return f
		},
		join: func(old, new *relFact) (*relFact, bool) {
			return old, old.join(new)
		},
		clone: func(f *relFact) *relFact { return f.clone() },
	}
	spec.analyze(g, func(r bool) { reporting = r })
}

// relStep interprets one straight-line statement over the resource fact.
func relStep(f *relFact, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		relAssign(f, x)
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if v := releasedVar(call); v != "" {
				delete(f.held, v)
				return
			}
		}
		relScanExpr(f, x.X)
	case *ast.DeferStmt:
		for _, v := range deferredReleases(x) {
			f.deferred[v] = true
		}
	case *ast.ReturnStmt:
		// Returning a tracked value transfers ownership to the caller.
		for _, r := range x.Results {
			relScanExpr(f, r)
			relDropReturned(f, r, false)
		}
	case *ast.SendStmt:
		// Sending a tracked value hands it to the receiver.
		relDropMentioned(f, x.Value)
		relScanExpr(f, x.Chan)
	case *ast.GoStmt:
		// The goroutine takes over anything it captures or is passed.
		relDropMentioned(f, x.Call)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						relScanExpr(f, v)
					}
				}
			}
		}
	}
}

// relAssign tracks acquisitions and ownership moves through an assignment.
func relAssign(f *relFact, as *ast.AssignStmt) {
	// v, err := Acquire(...) — single call on the right.
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if kind := acquireKind(call); kind != "" {
				relScanExpr(f, call)
				name, errName := "", ""
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					name = id.Name
				}
				if len(as.Lhs) > 1 {
					if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
						errName = id.Name
					}
				}
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						relScrubErr(f, id.Name)
					}
				}
				if name != "" {
					f.held[name] = resInfo{state: rsHeld, kind: kind, pos: call.Pos(), errOf: errName}
					delete(f.deferred, name)
				}
				return
			}
		}
	}
	for _, r := range as.Rhs {
		relScanExpr(f, r)
	}
	// Moves: `y := x` renames the tracking; `s.f = x` or `a[i] = x` stores
	// the value somewhere that outlives the function and ends tracking; any
	// other overwrite of a tracked name just stops tracking it.
	for i, l := range as.Lhs {
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		if id, ok := l.(*ast.Ident); ok {
			relScrubErr(f, id.Name)
			if rhs != nil {
				if src, ok := rhs.(*ast.Ident); ok {
					if info, tracked := f.held[src.Name]; tracked {
						delete(f.held, src.Name)
						if id.Name != "_" {
							f.held[id.Name] = info
						}
						continue
					}
				}
			}
			delete(f.held, id.Name)
		} else {
			relDropMentioned(f, rhs)
		}
	}
}

// relScrubErr detaches the error-idiom binding from every resource whose
// recorded error variable is being overwritten: once `err` is reused by a
// later call, an `err != nil` branch no longer says anything about the
// earlier acquisition.
func relScrubErr(f *relFact, name string) {
	for v, info := range f.held {
		if info.errOf == name {
			info.errOf = ""
			f.held[v] = info
		}
	}
}

// relScanExpr ends tracking for values handed off inside an expression: an
// argument to a constructor-shaped call (New*/from/wrap) is wrapped by the
// result, whose owner becomes responsible for the release. Standard-library
// constructors are exempt — bufio.NewReader(c) and friends wrap without
// taking close-ownership, so the caller still owes the release.
func relScanExpr(f *relFact, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			if root, ok := fun.X.(*ast.Ident); ok && stdlibRoots[root.Name] {
				return true
			}
			name = fun.Sel.Name
		}
		if !constructorRe.MatchString(name) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				delete(f.held, id.Name)
			}
		}
		return true
	})
}

// relDropMentioned ends tracking for every tracked identifier mentioned in
// e (outside nested function literals' bodies ownership still moves — a
// closure capturing the value is responsible for it).
func relDropMentioned(f *relFact, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			delete(f.held, id.Name)
		}
		return true
	})
}

// relDropReturned ends tracking for the values a return result hands to
// the caller: every tracked name the result mentions outside call
// arguments (`return c, nil`, `return &peerConn{c: c}`, a method's
// receiver), and whatever a function literal captures. A name that is only
// a call argument (`return scan(c)`) stays held; relScanExpr has already
// dropped it if the call is a constructor that wraps it. inArg is set
// while walking a call's arguments.
func relDropReturned(f *relFact, e ast.Expr, inArg bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			relDropMentioned(f, x)
			return false
		case *ast.CallExpr:
			relDropReturned(f, x.Fun, inArg)
			for _, arg := range x.Args {
				relDropReturned(f, arg, true)
			}
			return false
		case *ast.Ident:
			if !inArg {
				delete(f.held, x.Name)
			}
		}
		return true
	})
}

// relEdge refines facts along CFG edges: the error-branch idiom clears the
// failed acquisition, and exit edges apply deferred releases then report
// definite leaks.
func relEdge(pass *Pass, f *relFact, e *cfgEdge, reporting bool) {
	switch e.kind {
	case edgeCondTrue:
		relRefineErr(f, e.cond, true)
	case edgeCondFalse:
		relRefineErr(f, e.cond, false)
	case edgeExit, edgePanic:
		for v := range f.deferred {
			delete(f.held, v)
		}
		if reporting && e.kind == edgeExit {
			relReportExit(pass, f, e.pos)
		}
	}
}

// relRefineErr drops resources whose bound error is known non-nil on this
// edge: after `v, err := Dial(...)`, the `err != nil` branch holds nothing.
func relRefineErr(f *relFact, cond ast.Expr, branch bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	var errName string
	nilSide := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case nilSide(bin.Y):
		errName = selectorPath(bin.X)
	case nilSide(bin.X):
		errName = selectorPath(bin.Y)
	default:
		return
	}
	// err != nil taken, or err == nil not taken.
	failed := (bin.Op == token.NEQ && branch) || (bin.Op == token.EQL && !branch)
	if !failed {
		return
	}
	for v, info := range f.held {
		if info.errOf != "" && info.errOf == errName {
			delete(f.held, v)
		}
	}
}

// relReportExit reports every definitely-held resource at a return edge.
func relReportExit(pass *Pass, f *relFact, pos token.Pos) {
	var names []string
	for v, info := range f.held {
		if info.state == rsHeld {
			names = append(names, v)
		}
	}
	sortStrings(names)
	for _, v := range names {
		info := f.held[v]
		pass.Reportf(pos,
			"return without releasing %s %q acquired at line %d: close/put it on this path, defer the release, or hand ownership off explicitly",
			info.kind, v, pass.Fset.Position(info.pos).Line)
	}
}
