package lint

import (
	"go/ast"
	"go/token"
)

// LockPath is the path-sensitive companion to lockcheck: where lockcheck
// enforces the declared guarded-by relation, lockpath checks the lock
// operations themselves against the CFG. A month-long simulated crawl
// wedges permanently when one early-return path forgets an unlock, and a
// re-entrant Lock on a held sync.Mutex is an unconditional self-deadlock —
// neither shows up in tests that happen to take the happy path.
//
// Reported:
//
//   - a return path on which a locked mutex is still held (including the
//     "early return before the Unlock" shape), with deferred unlocks —
//     direct or inside a deferred closure — credited on the paths that
//     executed the defer;
//   - Lock/RLock on a mutex already definitely held (self-deadlock, and
//     the RLock→Lock upgrade deadlock).
//
// States that are only held on some incoming paths report at returns (the
// merge lost track of who unlocks) but not at re-locks, where a
// maybe-held state is usually a loop re-acquiring legitimately.
var LockPath = &Analyzer{
	Name: "lockpath",
	Doc: "CFG check that every Lock/RLock is released on all return paths and " +
		"never re-acquired while already held",
	Run: lockPathRun,
}

func lockPathRun(pass *Pass) error {
	if !internalScoped(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			lockPathBody(pass, body)
		})
	}
	return nil
}

// forEachFuncBody invokes fn on every function body in the file: each
// declaration, and each function literal (goroutine bodies, deferred
// closures, callbacks). The CFG flow never descends into a nested FuncLit,
// so each body is analyzed exactly once, with fresh entry state — a
// closure cannot assume its creator's locks are held at run time.
func forEachFuncBody(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				fn(x.Body)
			}
		case *ast.FuncLit:
			fn(x.Body)
		}
		return true
	})
}

func lockPathBody(pass *Pass, body *ast.BlockStmt) {
	runLockFlow(body, lockHooks{
		beforeLock: func(op lockOp, st lockState) {
			switch {
			case st == lkLocked:
				pass.Reportf(op.pos,
					"%s.%s() with %s already locked on every path here: sync mutexes are not re-entrant, this deadlocks",
					op.path, op.name, op.path)
			case st == lkRLocked && op.name == "Lock":
				pass.Reportf(op.pos,
					"%s.Lock() while %s is read-locked on every path here: lock upgrade deadlocks once a second reader blocks the writer",
					op.path, op.path)
			}
		},
		atExit: func(pos token.Pos, f *lockFact) {
			for _, path := range f.anyHeld() {
				switch f.held[path] {
				case lkLocked, lkRLocked:
					pass.Reportf(pos,
						"return with %s still %s: this path has no Unlock (deferred or direct)",
						path, f.held[path])
				case lkMixed:
					pass.Reportf(pos,
						"return with %s %s: some path into this return locks it without unlocking",
						path, f.held[path])
				}
			}
		},
	})
}
