package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// LeakSpawn flags the two goroutine-leak shapes that matter for a
// long-running solver process: unbounded spawns and channel operations with
// no way to unblock.
//
// A `go` statement is considered bounded when the spawn participates in one
// of these lifecycle idioms (the internal/parallel worker pool, a
// width-limited fan-out behind a counting semaphore):
//
//   - the spawned function body calls (*sync.WaitGroup).Done — the spawner
//     owns a join point;
//   - the spawned body acquires/releases a struct{}-element channel (a
//     counting semaphore token);
//   - a wg.Add call or a send on a struct{}-element channel sits on a CFG
//     path reaching the spawn (acquire-before-spawn, the shape that keeps
//     at most `width` goroutines of a fan-out alive).
//
// A blocking channel send/receive (or a range over a channel) is fine when
// an escape hatch exists: the channel is made with a non-zero buffer, it is
// part of a select with a default or a cancellation/timeout case (a
// call-derived channel such as time.After(...) or ctx.Done()), the receive
// sits in a defer (semaphore release), or a channel of the same type is
// closed somewhere in the package (managed shutdown — this matches the
// worker pool, where Close ranges over p.jobs closing each element).
// Intentional one-off goroutines (signal handlers, server loops joined at
// Close) carry //lint:ignore leakspawn directives stating the lifecycle
// argument.
type LeakSpawn struct{}

func (*LeakSpawn) ID() string { return "leakspawn" }

func (*LeakSpawn) Doc() string {
	return "goroutine spawns must be bounded (WaitGroup/semaphore/pool) and channel ops must have an unblock path (buffer, close, select escape)"
}

// leakEnv is the package-wide context the per-function checks consult.
type leakEnv struct {
	buffered    map[types.Object]bool // channels made with a non-zero capacity
	closedObjs  map[types.Object]bool // channels passed to close()
	closedTypes map[string]bool       // type strings of closed channels
	skip        map[ast.Node]bool     // ops excused by select/defer context
}

func (r *LeakSpawn) Check(p *Pass) []Finding {
	env := buildLeakEnv(p)
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				r.walkBody(p, env, fd.Body, &out)
			}
		}
	}
	return out
}

// walkBody checks one function body, recursing into function literals so
// each go statement is judged against the CFG of its innermost enclosing
// function (guards in an outer function do not bound a spawn in a closure).
func (r *LeakSpawn) walkBody(p *Pass, env *leakEnv, body *ast.BlockStmt, out *[]Finding) {
	var cfg *CFG // built on the first spawn in this body
	flag := func(n ast.Node, format string, args ...any) {
		*out = append(*out, Finding{
			Pos:      p.Position(n.Pos()),
			Rule:     r.ID(),
			Severity: Error,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body { // the top-level Inspect node is body itself
				r.walkBody(p, env, n.Body, out)
				return false
			}
		case *ast.GoStmt:
			if cfg == nil {
				cfg = BuildCFG(body)
			}
			if !spawnGuarded(p, env, cfg, n) {
				flag(n, "unguarded goroutine spawn: no WaitGroup.Done in the body and no wg.Add/semaphore acquire on a path reaching the spawn; bound it or lint:ignore with the lifecycle argument")
			}
			// Descend: the spawned body's own channel ops are still checked
			// (the FuncLit case above re-enters walkBody for them).
		case *ast.SendStmt:
			if !env.skip[n] && !chanEscapes(p, env, n.Chan, false) {
				flag(n, "blocking send on unbuffered channel %s with no close or select escape: a missing receiver parks this goroutine forever", types.ExprString(n.Chan))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !env.skip[n] && !chanEscapes(p, env, n.X, true) {
				flag(n, "blocking receive on channel %s with no buffer, close, or select escape", types.ExprString(n.X))
			}
		case *ast.RangeStmt:
			t := p.Info.Types[n.X].Type
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); isChan && !closeReaches(p, env, n.X) {
				flag(n.X, "range over channel %s that is never closed in this package: the loop cannot terminate", types.ExprString(n.X))
			}
		}
		return true
	})
}

// buildLeakEnv scans the package once for buffered makes, close sites, and
// the select/defer contexts that excuse blocking operations.
func buildLeakEnv(p *Pass) *leakEnv {
	env := &leakEnv{
		buffered:    map[types.Object]bool{},
		closedObjs:  map[types.Object]bool{},
		closedTypes: map[string]bool{},
		skip:        map[ast.Node]bool{},
	}
	markOps := func(root ast.Node, sends bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					env.skip[n] = true
				}
			case *ast.SendStmt:
				if sends {
					env.skip[n] = true
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
						if obj := referencedObj(p, n.Args[0]); obj != nil {
							env.closedObjs[obj] = true
						}
						if t := p.Info.Types[n.Args[0]].Type; t != nil {
							env.closedTypes[types.TypeString(t, nil)] = true
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if isBufferedMake(p, rhs) {
							if obj := referencedObj(p, n.Lhs[i]); obj != nil {
								env.buffered[obj] = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && isBufferedMake(p, v) {
						env.buffered[p.Info.Defs[n.Names[i]]] = true
					}
				}
			case *ast.KeyValueExpr:
				// serveErr: make(chan error, 1) inside a struct literal.
				if key, ok := n.Key.(*ast.Ident); ok && isBufferedMake(p, n.Value) {
					if obj := p.Info.Uses[key]; obj != nil {
						env.buffered[obj] = true
					}
				}
			case *ast.SelectStmt:
				comms := 0
				escape := false
				for _, cl := range n.Body.List {
					cc, ok := cl.(*ast.CommClause)
					if !ok {
						continue
					}
					if cc.Comm == nil {
						escape = true // default case: the select never blocks
						continue
					}
					comms++
					if commIsCancellation(cc.Comm) {
						escape = true // time.After(...), ctx.Done(), timer.C via call
					}
				}
				if escape || comms >= 2 {
					for _, cl := range n.Body.List {
						if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
							markOps(cc.Comm, true)
						}
					}
				}
			case *ast.DeferStmt:
				// defer func() { <-sem }() — the release half of the
				// semaphore idiom runs at function exit, it is not a leak.
				markOps(n, false)
			}
			return true
		})
	}
	return env
}

// commIsCancellation reports whether a select communication receives from a
// call-derived channel (time.After(d), ctx.Done(), timer/ticker accessors):
// the runtime-provided unblock path that excuses the select's other cases.
func commIsCancellation(comm ast.Stmt) bool {
	found := false
	ast.Inspect(comm, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			if _, isCall := ast.Unparen(u.X).(*ast.CallExpr); isCall {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBufferedMake reports whether e is make(chan T, n) with n not constantly
// zero. A non-constant capacity (make(chan struct{}, width)) counts as
// buffered: the semaphore width is a runtime decision, not a blocking bug.
func isBufferedMake(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	t := p.Info.Types[call].Type
	if t == nil {
		return false
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return false
	}
	if v := p.Info.Types[call.Args[1]].Value; v != nil {
		if z, ok := constant.Int64Val(v); ok && z == 0 {
			return false
		}
	}
	return true
}

// chanEscapes reports whether a blocking op on channel expression ch has an
// unblock path: a buffered make bound to the same object, or a close of the
// same object (receives only — sending on a closed channel panics) or of a
// channel of the same type anywhere in the package.
func chanEscapes(p *Pass, env *leakEnv, ch ast.Expr, isRecv bool) bool {
	obj := chanObj(p, ch)
	if obj != nil && env.buffered[obj] {
		return true
	}
	if isRecv && obj != nil && env.closedObjs[obj] {
		return true
	}
	if t := p.Info.Types[ch].Type; t != nil && env.closedTypes[types.TypeString(t, nil)] {
		return true
	}
	return false
}

// closeReaches reports whether the ranged-over channel has a close in the
// package, by object identity or by type (the pool's Close ranges over
// p.jobs closing each element — a different object than the worker's bound
// parameter, but the same channel type).
func closeReaches(p *Pass, env *leakEnv, ch ast.Expr) bool {
	if obj := chanObj(p, ch); obj != nil && env.closedObjs[obj] {
		return true
	}
	t := p.Info.Types[ch].Type
	return t != nil && env.closedTypes[types.TypeString(t, nil)]
}

// chanObj resolves a channel expression to the variable or field behind it.
func chanObj(p *Pass, ch ast.Expr) types.Object {
	e := ast.Unparen(ch)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X) // p.jobs[w]: track the backing container
	}
	return referencedObj(p, e)
}

// spawnGuarded reports whether the go statement participates in a bounded
// lifecycle idiom (see the type doc for the accepted shapes).
func spawnGuarded(p *Pass, env *leakEnv, cfg *CFG, g *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok && spawnedBodyGuarded(p, lit.Body) {
		return true
	}
	sb := cfg.BlockFor(g.Pos())
	if sb == nil {
		return false
	}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if !isSpawnGuardStmt(p, n) {
				continue
			}
			if b == sb {
				if n.Pos() < g.Pos() {
					return true
				}
				continue
			}
			if cfg.Reaches(b, sb) {
				return true
			}
		}
	}
	return false
}

// spawnedBodyGuarded reports whether the spawned closure joins a WaitGroup
// or handles a semaphore token itself.
func spawnedBodyGuarded(p *Pass, body *ast.BlockStmt) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupCall(p, n, "Done") {
				guarded = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isSemaphoreChan(p, n.X) {
				guarded = true
			}
		case *ast.SendStmt:
			if isSemaphoreChan(p, n.Chan) {
				guarded = true
			}
		}
		return !guarded
	})
	return guarded
}

// isSpawnGuardStmt matches the acquire-before-spawn statements: wg.Add(...)
// or a send of a token into a struct{}-element channel.
func isSpawnGuardStmt(p *Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		return ok && isWaitGroupCall(p, call, "Add")
	case *ast.SendStmt:
		return isSemaphoreChan(p, n.Chan)
	}
	return false
}

// isWaitGroupCall reports whether call invokes the named sync.WaitGroup
// method.
func isWaitGroupCall(p *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.FullName() == "(*sync.WaitGroup)."+name
}

// isSemaphoreChan reports whether e is a channel with struct{} elements —
// the token type of a counting semaphore.
func isSemaphoreChan(p *Pass, e ast.Expr) bool {
	t := p.Info.Types[e].Type
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
