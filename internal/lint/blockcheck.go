package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// BlockCheck flags operations that can block indefinitely while a mutex is
// definitely held. In the crawler these are latency cliffs at best and
// deadlocks at worst: a channel send under the node mutex stalls every
// peer the moment the consumer falls behind, a Dial under a lock holds the
// whole routing table hostage to a peer's TCP timeout, and Wait on a
// condition variable owned by a *different* mutex parks the goroutine with
// the held lock never released.
//
// Reported while a mutex is definitely held (held on every incoming
// path — maybe-held states stay silent to avoid noise at merges):
//
//   - channel sends and receives, unless they sit in a select that has a
//     default clause (those poll, they don't block);
//   - sleeps: time.Sleep and any other Sleep/SleepCtx method;
//   - network calls: Dial/DialContext/DialTimeout/Accept and the http
//     package verbs;
//   - Wait on a sync.Cond owned by a mutex other than one of the held
//     ones. Waiting on the held mutex's own cond is the correct idiom and
//     is not reported; receivers never registered via sync.NewCond (wait
//     groups, custom barriers) are skipped.
//
// Statements launched on other goroutines (go, defer) and nested function
// literals are skipped — they do not run under the current lock.
var BlockCheck = &Analyzer{
	Name: "blockcheck",
	Doc: "CFG check that no channel operation, sleep, network dial, or foreign " +
		"cond.Wait happens while a mutex is held",
	Run: blockCheckRun,
}

// netBlockRe matches selector call names that hit the network.
var netBlockRe = regexp.MustCompile(`^(Dial|DialContext|DialTimeout|DialIP|Accept)$`)

// httpVerbs are the blocking entry points on the net/http package selector.
var httpVerbs = map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true, "Do": true}

func blockCheckRun(pass *Pass) error {
	if !internalScoped(pass.Path) {
		return nil
	}
	owners := condOwners(pass.Files)
	for _, file := range pass.Files {
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			blockCheckBody(pass, body, owners)
		})
	}
	return nil
}

// condOwners maps each sync.Cond field/variable to the mutex it was built
// over, both normalized by fieldKey: `p.cond = sync.NewCond(&p.mu)`
// registers cond → mu, so a later `s.cond.Wait()` under "s.mu" resolves to
// the same pair regardless of receiver names.
func condOwners(files []*ast.File) map[string]string {
	owners := make(map[string]string)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					continue
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewCond" {
					continue
				}
				addr, ok := call.Args[0].(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					continue
				}
				cond := fieldKey(selectorPath(as.Lhs[i]))
				mu := fieldKey(selectorPath(addr.X))
				if cond != "" && mu != "" {
					owners[cond] = mu
				}
			}
			return true
		})
	}
	return owners
}

// fieldKey normalizes a selector path to its field part by dropping the
// leading receiver segment: "p.cond" and "s.cond" both become "cond";
// a bare identifier is returned unchanged.
func fieldKey(path string) string {
	if i := strings.Index(path, "."); i >= 0 {
		return path[i+1:]
	}
	return path
}

func blockCheckBody(pass *Pass, body *ast.BlockStmt, owners map[string]string) {
	runLockFlow(body, lockHooks{
		beforeStmt: func(s ast.Stmt, blk *cfgBlock, f *lockFact) {
			held := definitelyHeld(f)
			if len(held) == 0 {
				return
			}
			switch s.(type) {
			case *ast.GoStmt, *ast.DeferStmt:
				return
			}
			scanBlocking(pass, s, blk, held, owners)
		},
	})
}

// definitelyHeld returns the mutex paths held on every incoming path, in
// sorted order.
func definitelyHeld(f *lockFact) []string {
	var out []string
	for k, v := range f.held {
		if v == lkLocked || v == lkRLocked {
			out = append(out, k)
		}
	}
	sortStrings(out)
	return out
}

// scanBlocking walks one straight-line statement (never descending into
// function literals) and reports blocking operations.
func scanBlocking(pass *Pass, s ast.Stmt, blk *cfgBlock, held []string, owners map[string]string) {
	heldList := strings.Join(held, ", ")
	ast.Inspect(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !blk.nonBlocking {
				pass.Reportf(x.Arrow,
					"channel send while %s is held blocks every other user of the lock until the receiver drains; release first or use a select with default",
					heldList)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !blk.nonBlocking {
				pass.Reportf(x.OpPos,
					"channel receive while %s is held parks the goroutine with the lock; release first or use a select with default",
					heldList)
			}
		case *ast.CallExpr:
			reportBlockingCall(pass, x, held, heldList, owners)
		}
		return true
	})
}

// reportBlockingCall classifies one call expression under held locks.
func reportBlockingCall(pass *Pass, call *ast.CallExpr, held []string, heldList string, owners map[string]string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	recv := selectorPath(sel.X)
	switch {
	case name == "Sleep" || name == "SleepCtx":
		pass.Reportf(call.Pos(),
			"sleep while %s is held stalls every goroutine contending for the lock for the full duration",
			heldList)
	case netBlockRe.MatchString(name):
		pass.Reportf(call.Pos(),
			"%s while %s is held ties the lock to a network round-trip (or a peer's TCP timeout); dial first, lock after",
			name, heldList)
	case recv == "http" && httpVerbs[name]:
		pass.Reportf(call.Pos(),
			"http.%s while %s is held blocks the lock on a remote server's response time",
			name, heldList)
	case name == "Wait" && len(call.Args) == 0 && recv != "":
		owner, known := owners[fieldKey(recv)]
		if !known {
			return
		}
		foreign := true
		for _, h := range held {
			if fieldKey(h) == owner {
				foreign = false
			}
		}
		if foreign {
			pass.Reportf(call.Pos(),
				"%s.Wait() while %s is held: the cond is owned by %q, so the held lock is never released while the goroutine parks",
				recv, heldList, owner)
		}
	}
}
