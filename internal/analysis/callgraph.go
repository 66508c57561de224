package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncNode is one unit of the package-local call graph: a top-level
// function/method declaration or a function literal. Literals are
// separate nodes because they frequently run in a different execution
// context than their enclosing function (a goroutine body, a deferred
// recovery handler), and a context-sensitive analyzer (tripwire) must
// not smear one context's obligations over the other.
type FuncNode struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	// Calls are the call expressions appearing directly in this node's
	// body — not inside nested literals, which own their calls.
	Calls []*ast.CallExpr
	// callees are same-goroutine, same-package control transfers:
	// direct calls, deferred calls, and immediately-invoked or deferred
	// literals. Goroutine launches are NOT edges (see GoSite).
	callees []*FuncNode
}

// Name returns a human-readable label for diagnostics.
func (f *FuncNode) Name() string {
	if f.Decl != nil {
		if f.Decl.Recv != nil && len(f.Decl.Recv.List) == 1 {
			if named := recvNamed(f.Decl.Recv.List[0].Type); named != "" {
				return named + "." + f.Decl.Name.Name
			}
		}
		return f.Decl.Name.Name
	}
	return "func literal"
}

func recvNamed(t ast.Expr) string {
	switch u := t.(type) {
	case *ast.StarExpr:
		return recvNamed(u.X)
	case *ast.Ident:
		return u.Name
	case *ast.IndexExpr: // generic receiver
		return recvNamed(u.X)
	case *ast.IndexListExpr:
		return recvNamed(u.X)
	}
	return ""
}

// Pos returns the node's declaration position.
func (f *FuncNode) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// Body returns the node's own body.
func (f *FuncNode) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// GoSite is one `go` statement: the spawning node, the statement, and
// the spawned node when it is resolvable within the package (a literal
// or a declared function/method; nil for cross-package or indirect
// targets).
type GoSite struct {
	In      *FuncNode
	Stmt    *ast.GoStmt
	Spawned *FuncNode
}

// CallGraph is the package-local call graph of one pass.
type CallGraph struct {
	Nodes []*FuncNode
	// GoSites lists every goroutine launch in the package.
	GoSites []GoSite

	declOf map[*types.Func]*FuncNode
	litOf  map[*ast.FuncLit]*FuncNode
}

// NodeFor returns the node of a declared function/method, or nil.
func (g *CallGraph) NodeFor(fn *types.Func) *FuncNode { return g.declOf[fn] }

// BuildCallGraph constructs the package-local call graph for pass.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		declOf: map[*types.Func]*FuncNode{},
		litOf:  map[*ast.FuncLit]*FuncNode{},
	}
	// First pass: register every declaration and literal as a node.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := &FuncNode{Decl: fd}
			g.Nodes = append(g.Nodes, node)
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.declOf[obj] = node
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					ln := &FuncNode{Lit: lit}
					g.Nodes = append(g.Nodes, ln)
					g.litOf[lit] = ln
				}
				return true
			})
		}
	}
	// Second pass: populate each node's own calls and edges.
	for _, node := range g.Nodes {
		g.scan(pass, node)
	}
	return g
}

// scan walks one node's own body (stopping at nested literal
// boundaries), collecting calls, call edges, and goroutine launches.
func (g *CallGraph) scan(pass *Pass, node *FuncNode) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != node.Lit {
					return false // owned by its own node
				}
			case *ast.GoStmt:
				g.GoSites = append(g.GoSites, GoSite{
					In:      node,
					Stmt:    n,
					Spawned: g.calleeNode(pass, n.Call),
				})
				// The spawned invocation is not a same-goroutine edge,
				// but its Fun/Args are evaluated here; walk them without
				// re-seeing the GoStmt.
				walk(n.Call.Fun)
				for _, a := range n.Call.Args {
					walk(a)
				}
				return false
			case *ast.CallExpr:
				node.Calls = append(node.Calls, n)
				if callee := g.calleeNode(pass, n); callee != nil {
					node.callees = append(node.callees, callee)
				}
			}
			return true
		})
	}
	walk(node.Body())
}

// calleeNode resolves a call to its package-local node: an
// immediately-invoked literal, or a declared function/method of this
// package.
func (g *CallGraph) calleeNode(pass *Pass, call *ast.CallExpr) *FuncNode {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return g.litOf[lit]
	}
	if fn := CalleeOf(pass.TypesInfo, call); fn != nil {
		return g.declOf[fn]
	}
	return nil
}

// Reachable returns the set of nodes reachable from roots over
// same-goroutine call edges (including the roots themselves).
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	var visit func(n *FuncNode)
	visit = func(n *FuncNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.callees {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}
