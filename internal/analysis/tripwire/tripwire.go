// Package tripwire enforces the panic-surfacing pattern for
// protocol-server goroutines: any goroutine that consumes endpoint
// traffic must recover panics and convert them into a Run error.
//
// The failure mode it mechanizes: a server goroutine that panics takes
// its endpoint's drain loop with it. Peers keep sending into an inbox
// nobody drains and wait for replies that never come; the whole
// simulation wedges with no error and no output — the panic text is the
// only evidence and it raced to stderr.
// The repository's pattern (dsm.System.recoverAbort) recovers at the
// top of every server goroutine and funnels the failure into the error
// Run returns, so a protocol bug fails the run loudly and
// deterministically instead of hanging it.
//
// Mechanization: for every `go` statement whose spawned function
// (literal or same-package declaration) transitively reaches an
// Endpoint receive (Recv, RecvRaw, TryRecvRaw, Ready) over
// same-goroutine call edges, the spawned body must open with a deferred
// recovery: a top-level `defer` of either a function literal that calls
// recover(), or a same-package function/method whose body calls
// recover() (e.g. `defer s.recoverAbort(n)`).
package tripwire

import (
	"go/ast"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tripwire",
	Doc:  "protocol-server goroutines must recover panics into Run errors (a dead drain loop wedges the network silently)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)

	// Receiver nodes: functions whose own body performs an endpoint
	// receive.
	var receivers []*analysis.FuncNode
	for _, node := range g.Nodes {
		for _, call := range node.Calls {
			fn := analysis.CalleeOf(pass.TypesInfo, call)
			if analysis.IsMethodOn(fn, "network", "Endpoint", "Recv", "RecvRaw", "TryRecvRaw", "Ready") {
				receivers = append(receivers, node)
				break
			}
		}
	}
	if len(receivers) == 0 {
		return nil
	}
	isReceiver := map[*analysis.FuncNode]bool{}
	for _, r := range receivers {
		isReceiver[r] = true
	}

	for _, site := range g.GoSites {
		if site.Spawned == nil {
			continue // indirect or cross-package target: not resolvable
		}
		// Does the spawned goroutine (not its further `go` spawns) reach
		// an endpoint receive?
		reach := g.Reachable([]*analysis.FuncNode{site.Spawned})
		touches := false
		for n := range reach {
			if isReceiver[n] {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		if hasTopLevelRecover(pass, g, site.Spawned) {
			continue
		}
		pass.Reportf(site.Stmt.Pos(),
			"goroutine %s consumes endpoint traffic but has no top-level deferred recover: a panic here kills the drain loop and wedges the network silently; recover into the Run error (the recoverAbort pattern)",
			site.Spawned.Name())
	}
	return nil
}

// hasTopLevelRecover reports whether the spawned function's body opens
// with a deferred recovery handler: a top-level DeferStmt whose callee
// is a recover()-calling literal or a same-package function/method whose
// declared body calls recover().
func hasTopLevelRecover(pass *analysis.Pass, g *analysis.CallGraph, node *analysis.FuncNode) bool {
	body := node.Body()
	if body == nil {
		return false
	}
	for _, stmt := range body.List {
		def, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if lit, ok := ast.Unparen(def.Call.Fun).(*ast.FuncLit); ok {
			if analysis.MentionsRecover(lit.Body) {
				return true
			}
			continue
		}
		if fn := analysis.CalleeOf(pass.TypesInfo, def.Call); fn != nil {
			if callee := g.NodeFor(fn); callee != nil && callee.Body() != nil &&
				analysis.MentionsRecover(callee.Body()) {
				return true
			}
		}
	}
	return false
}
