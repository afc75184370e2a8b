package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// randConstructors are the math/rand package functions that build
// deterministic sources rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// globalRandRef returns the package-level math/rand function sel draws
// from the global source with, or nil. Methods on an explicit *rand.Rand
// and the source constructors are fine.
func globalRandRef(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return nil
	}
	if randConstructors[fn.Name()] || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// runGlobalRand flags package-level math/rand functions (rand.Intn,
// rand.Float64, rand.Shuffle, ...). The global source is seeded from the
// host and shared across goroutines, so a single draw makes a run
// irreproducible; all randomness must flow through the per-Simulation
// seeded *rand.Rand.
func runGlobalRand(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn := globalRandRef(p.Unit.Info, sel); fn != nil {
			p.Report(sel.Pos(),
				fmt.Sprintf("global math/rand function rand.%s", fn.Name()),
				"draw from the seeded per-Simulation source (Sim.Rand) so runs are a pure function of the seed")
		}
		return true
	})
}
