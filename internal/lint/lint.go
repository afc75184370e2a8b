// Package lint is ddbmlint: a pure-stdlib static analyzer that enforces
// the simulator's determinism invariants at the AST/type level instead of
// hoping a golden seed exercises them. The whole value of this
// reproduction rests on bit-identical, seed-deterministic runs; golden
// tests guard that property dynamically, this package guards it
// statically. Allocation freedom and sorting cost are performance
// properties, not determinism ones: the run-time allocation pins guard
// them, not this package.
//
// Four per-file checks (see the check files for details):
//
//	no-wall-clock       time.Now/Since/Sleep/... in simulation code
//	no-global-rand      package-level math/rand functions
//	map-order           for-range over a map with an order-sensitive body
//	no-naked-goroutine  go statements and Sim.Spawn outside internal/sim
//
// Dead-handle hazards need no check: the kernel exports no event handle
// (Schedule and After return nothing; a cancelable wait is a sim.Cont)
// and the tracer no open-span handle (spans are recorded whole), so the
// compiler rules out retaining either. Nor does a clock read or a global
// rand draw reached through a helper: the only packages exempt from the
// first two checks are the main packages under cmd/, which nothing can
// import (TestExemptPackagesAreMain).
//
// A finding can be suppressed with an annotation comment on the flagged
// line, or on comment lines stacked directly above it:
//
//	//ddbmlint:ordered <why iteration order cannot matter>
//	//ddbmlint:allow <check-name> <why this use is audited and safe>
//
// A trailing annotation, on a line that also holds code, covers only its
// own line. Annotations must state their justification; an annotation
// with no reason, for an unknown check, or that suppresses nothing is
// itself a diagnostic, so stale escapes cannot accumulate.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Diagnostic is one finding: position, the check that fired, the message,
// and a hint describing the fix.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
	Hint  string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Msg)
	if d.Hint != "" {
		s += "\n\thint: " + d.Hint
	}
	return s
}

// Check is one per-file analyzer. Run is invoked once per file that the
// config leaves in scope.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Pass, f *ast.File)
}

// Checks is the suite, in reporting order.
var Checks = []Check{
	{Name: "no-wall-clock", Doc: "wall-clock time in simulation code", Run: runWallClock},
	{Name: "no-global-rand", Doc: "global math/rand functions", Run: runGlobalRand},
	{Name: "map-order", Doc: "order-sensitive map iteration", Run: runMapOrder},
	{Name: "no-naked-goroutine", Doc: "goroutines outside the sim scheduler", Run: runNakedGoroutine},
}

func checkNameValid(name string) bool {
	for _, c := range Checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// Pass hands one check everything it needs for one unit.
type Pass struct {
	Unit  *Unit
	check string
	run   *run
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Unit.Info.ObjectOf(id) }

// Report files a diagnostic unless an annotation suppresses it.
func (p *Pass) Report(pos token.Pos, msg, hint string) {
	p.run.report(p.check, pos, msg, hint)
}

// run is the mutable state of one whole lint invocation.
type run struct {
	fset  *token.FileSet
	anns  map[string]*fileAnns // filename -> annotations
	diags []Diagnostic
}

func (r *run) report(check string, pos token.Pos, msg, hint string) {
	position := r.fset.Position(pos)
	if a := r.annotationFor(position.Filename, position.Line, check); a != nil {
		a.used = true
		return
	}
	r.diags = append(r.diags, Diagnostic{Pos: position, Check: check, Msg: msg, Hint: hint})
}

// annotationFor finds an annotation for check on line or on the
// contiguous run of annotation lines directly above it that hold no code,
// so several single-annotation comment lines can stack over one site. A
// trailing annotation, on a line that holds code, ends the run: it covers
// only its own line.
func (r *run) annotationFor(file string, line int, check string) *annotation {
	fa := r.anns[file]
	if fa == nil {
		return nil
	}
	if a := matchAnnotation(fa.byLine[line], check); a != nil {
		return a
	}
	for l := line - 1; fa.stacked[l]; l-- {
		if a := matchAnnotation(fa.byLine[l], check); a != nil {
			return a
		}
	}
	return nil
}

func matchAnnotation(anns []*annotation, check string) *annotation {
	for _, a := range anns {
		if a.check == check {
			return a
		}
	}
	return nil
}

// Target is one directory to lint, with the import path used for config
// scope decisions.
type Target struct {
	Dir  string
	Path string
}

// Runner applies a Config's worth of checks to loaded packages.
type Runner struct {
	Loader *Loader
	Config Config
}

// LintDir lints every unit in a single directory; a convenience wrapper
// around Lint for one target.
func (r *Runner) LintDir(dir, pkgPath string) ([]Diagnostic, error) {
	return r.Lint([]Target{{Dir: dir, Path: pkgPath}})
}

// Lint runs the whole suite over the target directories and returns the
// diagnostics in deterministic order.
func (r *Runner) Lint(targets []Target) ([]Diagnostic, error) {
	var units []*Unit
	for _, t := range targets {
		us, err := r.Loader.LoadDir(t.Dir, t.Path)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}

	rn := &run{fset: r.Loader.Fset, anns: map[string]*fileAnns{}}
	for _, u := range units {
		for _, f := range u.Files {
			rn.anns[r.Loader.Fset.Position(f.Pos()).Filename] = collectAnnotations(r.Loader.Fset, f, rn)
		}
	}

	for _, u := range units {
		r.lintUnit(u, rn)
	}

	// Stale escapes are findings too: an annotation that suppressed
	// nothing means the code it excused was fixed (or never needed it).
	for _, u := range units {
		for _, f := range u.Files {
			name := r.Loader.Fset.Position(f.Pos()).Filename
			for _, a := range rn.anns[name].list {
				if a.used {
					continue
				}
				rn.diags = append(rn.diags, Diagnostic{
					Pos:   token.Position{Filename: name, Line: a.line, Column: 1},
					Check: "annotation",
					Msg:   fmt.Sprintf("unused ddbmlint annotation for %q", a.check),
					Hint:  "the annotated construct no longer triggers the check; delete the annotation",
				})
			}
		}
	}

	slices.SortFunc(rn.diags, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Column, b.Pos.Column); c != 0 {
			return c
		}
		return cmp.Compare(a.Check, b.Check)
	})
	return rn.diags, nil
}

func (r *Runner) lintUnit(u *Unit, rn *run) {
	for _, chk := range Checks {
		pol := r.Config.policy(chk.Name)
		if !pol.inScope(u.Path) {
			continue
		}
		pass := &Pass{Unit: u, check: chk.Name, run: rn}
		for _, f := range u.Files {
			if pol.SkipTests && u.Test[f] {
				continue
			}
			chk.Run(pass, f)
		}
	}
}
