package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runNakedGoroutine flags goroutines started outside internal/sim: go
// statements, and calls of Sim.Spawn, which runs a process body on a
// goroutine of its own. The simulator runs every process as a state
// machine over a sim.Cont on the caller's goroutine, so interleaving is a
// pure function of the event queue; Spawn survives only so the kernel's
// benchmark can time the goroutine switch the continuations replaced. A
// goroutine started anywhere else races the scheduler and reintroduces
// host-timing nondeterminism unless it has been audited end to end.
func runNakedGoroutine(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.Report(n.Pos(),
				"goroutine outside internal/sim",
				"model concurrency as sim processes (state machines over a sim.Cont); host-parallel fan-out needs an audited //ddbmlint:allow no-naked-goroutine <why>")
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isSimSpawn(p.ObjectOf(sel.Sel)) {
				p.Report(n.Pos(),
					"goroutine process (Sim.Spawn) outside internal/sim",
					"write the process as a state machine over a sim.Cont")
			}
		}
		return true
	})
}

// isSimSpawn reports whether obj is a Spawn method of the sim package —
// Sim.Spawn, the only one.
func isSimSpawn(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == "Spawn" && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/sim") &&
		fn.Type().(*types.Signature).Recv() != nil
}
