package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// wallClockFns are the package time functions that read or wait on the
// host clock. Pure conversions and types (time.Duration, time.Unix math
// on fixed values) are untouched.
var wallClockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// wallClockRef returns the package time function sel refers to when it
// reads or waits on the host clock, or nil.
func wallClockRef(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return nil
	}
	if wallClockFns[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
		return fn
	}
	return nil
}

// runWallClock flags wall-clock time in simulation code: the simulator is
// a virtual-time machine, and a single time.Now or time.Sleep couples a
// run to the host scheduler and destroys seed determinism.
func runWallClock(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn := wallClockRef(p.Unit.Info, sel); fn != nil {
			p.Report(sel.Pos(),
				fmt.Sprintf("wall-clock time.%s in simulation code", fn.Name()),
				"simulation code runs on virtual time: use Sim.Now, Sim.After, or Cont.Delay")
		}
		return true
	})
}
