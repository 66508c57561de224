// Package lockorder builds the package-local static mutex acquisition
// graph and flags cycles — the classic AB/BA deadlock shape — across
// the protocol's named mutexes (Node.mu, Node.fetchMu, the System
// mutexes, the coordinator and engine locks).
//
// A mutex is identified by its owning named type and field name
// (Node.mu), or by package-level variable for free-standing locks;
// function-local mutexes are ignored (they cannot participate in a
// cross-function order). The abstraction deliberately identifies all
// INSTANCES of a field: the protocol's deadlock-freedom arguments are
// stated over lock CLASSES ("never take another node's mu while holding
// ours" is exactly a self-edge on Node.mu), so a same-class self-edge
// is reported too.
//
// Each function is summarized as an ordered stream of lock / try-lock /
// unlock / call events; edges come from replaying that stream: while A
// is held, a blocking acquisition of B adds edge A→B. TryLock acquires
// without blocking, so it adds no in-edge — exactly the protocol's
// reason for using it on the GC purge gate — but what runs under a
// successful TryLock still produces out-edges. Deferred unlocks hold to
// the end of the function (or inlined literal) that deferred them and
// release there, so a callee that holds by defer returns unlocked. A branch that exits the function (return/panic/break)
// sequences normally within itself, but the fallthrough path resumes
// from the pre-branch state — an early-return fast path neither hides
// its own acquisitions nor perturbs the main-line ordering.
//
// Calls are resolved by replaying the callee's stream against each
// caller-held lock class: a callee that releases the caller's lock
// before acquiring others (faultRoundLocked and the GC purge both drop
// n.mu before taking fetchMu — the discipline Node's field comments
// document) exposes no edge from it, while locks taken in a window
// where the caller's class is (re-)held do; the ...Locked handoff
// helpers that return with the caller's mutex released are modeled the
// same way. Goroutine launches start with nothing held and are not
// replayed into the spawning context.
//
// Every edge that participates in a cycle is reported at its
// acquisition site. The analysis is package-local and approximate in
// the usual static ways (no aliasing through function values, linear
// replay of branches, function literals replayed at their definition
// point); a //nowlint:allow lockorder directive with a justification
// records why a flagged edge cannot deadlock in practice.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "static mutex acquisition graph must be acyclic (AB/BA deadlock freedom over the protocol's named mutexes)",
	Run:  run,
}

// lockKey names one mutex class: "Type.field" or "pkg.var".
type lockKey string

type edge struct {
	from, to lockKey
	pos      token.Pos
	via      string
}

type funcSummary struct {
	decl  *ast.FuncDecl
	sites []site // ordered event stream
}

// site is one ordered event inside a function body.
type site struct {
	key  lockKey // lock/trylock/unlock events
	fn   *types.Func
	pos  token.Pos
	kind siteKind
	// spawned marks a call launched with `go`: the callee runs on a new
	// goroutine holding nothing, so it is never replayed into this
	// stream's held state.
	spawned bool
}

type siteKind int

const (
	siteLock siteKind = iota
	siteTryLock
	siteUnlock
	siteCall
	// sitePush/sitePop bracket a branch that exits the function
	// (return/panic/break): inside the bracket events sequence normally
	// — an unlock there really is released for whatever follows it on
	// that path — but at the pop the pre-branch state is restored, since
	// the fallthrough path never executed any of it.
	sitePush
	sitePop
)

func run(pass *analysis.Pass) error {
	sums := map[*types.Func]*funcSummary{}
	var order []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &funcSummary{decl: fd}
			w := &walker{pass: pass, sum: s}
			w.body(fd.Body.List)
			sums[obj] = s
			order = append(order, obj)
		}
	}

	ev := &evaluator{sums: sums, memo: map[evalKey]evalRes{}}

	// Edge generation: replay every function's stream from an empty held
	// set, applying callee effects at call sites.
	var edges []edge
	seen := map[string]bool{}
	add := func(e edge) {
		k := fmt.Sprintf("%s|%s|%d", e.from, e.to, e.pos)
		if !seen[k] {
			seen[k] = true
			edges = append(edges, e)
		}
	}
	for _, fn := range order {
		var held []lockKey
		var saved [][]lockKey
		for _, st := range sums[fn].sites {
			switch st.kind {
			case sitePush:
				saved = append(saved, copyHeld(held))
			case sitePop:
				held, saved = saved[len(saved)-1], saved[:len(saved)-1]
			case siteLock:
				for _, h := range held {
					add(edge{from: h, to: st.key, pos: st.pos,
						via: fmt.Sprintf("%s acquired while %s is held", st.key, h)})
				}
				held = appendKey(held, st.key)
			case siteTryLock:
				held = appendKey(held, st.key)
			case siteUnlock:
				held = removeKey(held, st.key)
			case siteCall:
				if st.spawned {
					continue
				}
				callee := sums[st.fn]
				if callee == nil {
					continue
				}
				for _, h := range copyHeld(held) {
					r := ev.eval(callee, h, true, nil)
					for k := range r.exposed {
						add(edge{from: h, to: k, pos: st.pos,
							via: fmt.Sprintf("call to %s (which acquires %s) while %s is held", st.fn.Name(), k, h)})
					}
					if !r.finalHeld {
						held = removeKey(held, h)
					}
				}
			}
		}
	}

	// Cycle detection: report every edge whose head can reach its tail.
	adj := map[lockKey]map[lockKey]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[lockKey]bool{}
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to lockKey) bool {
		if from == to {
			return true
		}
		visited := map[lockKey]bool{from: true}
		stack := []lockKey{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for m := range adj[n] {
				if m == to {
					return true
				}
				if !visited[m] {
					visited[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	for _, e := range edges {
		if reaches(e.to, e.from) {
			pass.Reportf(e.pos,
				"lock acquisition cycle: %s, and %s is (transitively) acquired while %s is held elsewhere — an AB/BA interleaving deadlocks",
				e.via, e.from, e.to)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Callee replay.
// ---------------------------------------------------------------------

type evalKey struct {
	f         *funcSummary
	h         lockKey
	entryHeld bool
}

type evalRes struct {
	exposed   map[lockKey]bool
	finalHeld bool
}

type evaluator struct {
	sums map[*types.Func]*funcSummary
	memo map[evalKey]evalRes
}

// eval replays f's event stream under the assumption that the calling
// goroutine does (entryHeld) or does not hold lock class h at the call,
// returning the set of lock classes f may block on while h is held and
// whether h is held when f returns. Exposure is only collected in
// windows where h is held; edges f creates entirely on its own (taking
// h itself, then others) come from f's own replay, not from here.
func (ev *evaluator) eval(f *funcSummary, h lockKey, entryHeld bool, stack []*funcSummary) evalRes {
	k := evalKey{f, h, entryHeld}
	if r, ok := ev.memo[k]; ok {
		return r
	}
	for _, g := range stack {
		if g == f { // recursion: assume no state change
			return evalRes{finalHeld: entryHeld}
		}
	}
	stack = append(stack, f)

	heldH := entryHeld
	var saved []bool
	exposed := map[lockKey]bool{}
	for _, st := range f.sites {
		switch st.kind {
		case sitePush:
			saved = append(saved, heldH)
		case sitePop:
			heldH, saved = saved[len(saved)-1], saved[:len(saved)-1]
		case siteLock:
			if st.key == h {
				if heldH {
					exposed[h] = true // another instance of the class
				}
				heldH = true
			} else if heldH {
				exposed[st.key] = true
			}
		case siteTryLock:
			if st.key == h {
				heldH = true
			}
		case siteUnlock:
			// Both a release of the caller's lock and a self-matched
			// unlock leave the class unheld by this goroutine.
			if st.key == h {
				heldH = false
			}
		case siteCall:
			if st.spawned {
				continue
			}
			g := ev.sums[st.fn]
			if g == nil {
				continue
			}
			r := ev.eval(g, h, heldH, stack)
			if heldH {
				for x := range r.exposed {
					exposed[x] = true
				}
			}
			heldH = r.finalHeld
		}
	}
	res := evalRes{exposed: exposed, finalHeld: heldH}
	ev.memo[k] = res
	return res
}

// ---------------------------------------------------------------------
// Event-stream construction.
// ---------------------------------------------------------------------

type walker struct {
	pass *analysis.Pass
	sum  *funcSummary
	// deferred holds the unlocks deferred so far in the function body (or
	// inlined literal) being walked; body emits them at its end.
	deferred []site
}

// body walks one function body — a declaration's, or a literal's inlined
// at its definition point — and releases at its end, last deferred first,
// what it unlocked by defer.
func (w *walker) body(list []ast.Stmt) {
	outer := w.deferred
	w.deferred = nil
	w.stmts(list)
	for i := len(w.deferred) - 1; i >= 0; i-- {
		w.emit(w.deferred[i])
	}
	w.deferred = outer
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// branch walks a branch body and, if the branch terminates
// (return/panic/break/continue), brackets its events with push/pop so
// its state effects sequence normally inside but do not leak onto the
// fallthrough path.
func (w *walker) branch(body ast.Stmt) {
	start := len(w.sum.sites)
	w.stmt(body)
	if terminates(body) {
		w.bracket(start)
	}
}

func (w *walker) branchList(list []ast.Stmt) {
	start := len(w.sum.sites)
	w.stmts(list)
	if len(list) > 0 && terminates(list[len(list)-1]) {
		w.bracket(start)
	}
}

// bracket wraps sites[start:] in a sitePush/sitePop pair.
func (w *walker) bracket(start int) {
	w.sum.sites = append(w.sum.sites, site{})
	copy(w.sum.sites[start+1:], w.sum.sites[start:])
	w.sum.sites[start] = site{kind: sitePush}
	w.sum.sites = append(w.sum.sites, site{kind: sitePop})
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held for the remainder of
		// the body and releases at its end (see body). A deferred literal
		// also runs at exit: skipped. A deferred lock holds from here on.
		if key, op, ok := w.mutexOp(s.Call); ok {
			switch op {
			case "Lock", "RLock":
				w.emit(site{key: key, kind: siteLock, pos: s.Call.Pos()})
			case "Unlock", "RUnlock":
				w.deferred = append(w.deferred, site{key: key, kind: siteUnlock, pos: s.Call.Pos()})
			}
			return
		}
		if _, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); isLit {
			return
		}
		for _, a := range s.Call.Args {
			w.expr(a)
		}
		w.call(s.Call, false)
	case *ast.GoStmt:
		// Arguments are evaluated here; the invocation runs on a new
		// goroutine with nothing held. An anonymous body is analyzed as
		// nothing (it has no declared summary to replay); a named callee
		// is recorded as spawned so replays skip it.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
		if _, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); !isLit {
			w.call(s.Call, true)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body)
		if s.Else != nil {
			w.branch(s.Else)
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branchList(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branchList(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branchList(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return terminates(s.List[len(s.List)-1])
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// expr records the events of an expression, including function literals
// inline at their definition point (the purge closures run synchronously
// under the callee that receives them; goroutine literals are excluded
// by the GoStmt case above).
func (w *walker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.body(n.Body.List)
			return false
		case *ast.CallExpr:
			w.call(n, false)
			return true
		}
		return true
	})
}

// call records one call expression's event (arguments are walked by the
// caller's traversal, not here).
func (w *walker) call(call *ast.CallExpr, spawned bool) {
	if key, op, ok := w.mutexOp(call); ok {
		switch op {
		case "Lock", "RLock":
			w.emit(site{key: key, kind: siteLock, pos: call.Pos()})
		case "TryLock", "TryRLock":
			// Never blocks: no in-edge, but a success holds the lock, so
			// later acquisitions under it still produce edges.
			w.emit(site{key: key, kind: siteTryLock, pos: call.Pos()})
		case "Unlock", "RUnlock":
			w.emit(site{key: key, kind: siteUnlock, pos: call.Pos()})
		}
		return
	}
	if fn := analysis.CalleeOf(w.pass.TypesInfo, call); fn != nil && fn.Pkg() == w.pass.Pkg {
		w.emit(site{fn: fn, kind: siteCall, pos: call.Pos(), spawned: spawned})
	}
}

func (w *walker) emit(s site) { w.sum.sites = append(w.sum.sites, s) }

// mutexOp recognizes X.Lock/Unlock/RLock/RUnlock/TryLock/TryRLock on a
// sync.Mutex or sync.RWMutex and resolves X to a lock key.
func (w *walker) mutexOp(call *ast.CallExpr) (lockKey, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	fn := analysis.CalleeOf(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := analysis.NamedOf(fn.Type().(*types.Signature).Recv().Type())
	if recv == nil || (recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	key, ok := w.keyOf(sel.X)
	if !ok {
		return "", "", false
	}
	return key, op, true
}

// keyOf names the mutex expression: Type.field for struct fields
// (however deep the access path), package-level variables by name.
// Local mutexes return ok=false and are ignored.
func (w *walker) keyOf(x ast.Expr) (lockKey, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := w.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if named := analysis.NamedOf(sel.Recv()); named != nil {
				return lockKey(named.Obj().Name() + "." + x.Sel.Name), true
			}
		}
		if obj, ok := w.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && isPkgLevel(obj) {
			return lockKey(obj.Pkg().Name() + "." + obj.Name()), true
		}
	case *ast.Ident:
		if obj, ok := w.pass.TypesInfo.Uses[x].(*types.Var); ok && isPkgLevel(obj) {
			return lockKey(obj.Pkg().Name() + "." + obj.Name()), true
		}
	}
	return "", false
}

func isPkgLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func copyHeld(h []lockKey) []lockKey { return append([]lockKey(nil), h...) }

func containsKey(h []lockKey, k lockKey) bool {
	for _, x := range h {
		if x == k {
			return true
		}
	}
	return false
}

func appendKey(h []lockKey, k lockKey) []lockKey {
	if containsKey(h, k) {
		return h
	}
	return append(h, k)
}

func removeKey(h []lockKey, k lockKey) []lockKey {
	var out []lockKey
	for _, x := range h {
		if x != k {
			out = append(out, x)
		}
	}
	return out
}
