// Package lint is ddbmlint: a pure-stdlib static analyzer that enforces
// the simulator's determinism invariants at the AST/type level instead of
// hoping a golden seed exercises them. The whole value of this
// reproduction rests on bit-identical, seed-deterministic runs; golden
// tests guard that property dynamically, this package guards it
// statically.
//
// Five intra-unit checks (see the check files for details):
//
//	no-wall-clock       time.Now/Since/Sleep/... in simulation code
//	no-global-rand      package-level math/rand functions
//	map-order           for-range over a map with an order-sensitive body
//	no-naked-goroutine  go statements and Sim.Spawn outside internal/sim
//	no-reflect-sort     sort.Slice/sort.SliceStable in internal/ code
//
// Dead-handle hazards need no check: the kernel exports no event handle
// (Schedule and After return nothing; a cancelable wait is a sim.Cont)
// and the tracer no open-span handle (spans are recorded whole), so the
// compiler rules out retaining either.
//
// Three interprocedural checks run over a whole-module call graph with
// per-function determinism summaries (see callgraph.go, summary.go):
//
//	taint-wall-clock    simulation code reaching a wall-clock read
//	                    through helpers outside the base check's scope
//	taint-rand          simulation code reaching the global rand source
//	                    through helpers outside the base check's scope
//	hotpath-alloc       //ddbmlint:hotpath functions must be statically
//	                    allocation-free, transitively
//
// A finding can be suppressed with an annotation comment on the flagged
// line or stacked comment lines directly above it:
//
//	//ddbmlint:ordered <why iteration order cannot matter>
//	//ddbmlint:allow <check-name> <why this use is audited and safe>
//
// and a function is pinned as an allocation-free hot path with
//
//	//ddbmlint:hotpath [why this path is hot]
//
// Annotations must state their justification; an annotation with no
// reason, for an unknown check, or that suppresses nothing is itself a
// diagnostic, so stale escapes cannot accumulate.
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

// Check is one intra-unit analyzer. Run is invoked once per file that the
// config leaves in scope.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Pass, f *ast.File)
}

// Checks is the intra-unit suite, in reporting order.
var Checks = []Check{
	{Name: "no-wall-clock", Doc: "wall-clock time in simulation code", Run: runWallClock},
	{Name: "no-global-rand", Doc: "global math/rand functions", Run: runGlobalRand},
	{Name: "map-order", Doc: "order-sensitive map iteration", Run: runMapOrder},
	{Name: "no-naked-goroutine", Doc: "goroutines outside the sim scheduler", Run: runNakedGoroutine},
	{Name: "no-reflect-sort", Doc: "reflection-based sort.Slice in hot library code", Run: runReflectSort},
}

// ModuleCheck is one interprocedural analyzer: it sees the whole call
// graph and the computed summaries rather than one file.
type ModuleCheck struct {
	Name string
	Doc  string
	Run  func(mp *ModulePass)
}

// ModuleChecks is the interprocedural suite, in reporting order.
var ModuleChecks = []ModuleCheck{
	{Name: "taint-wall-clock", Doc: "wall-clock reads reached through out-of-scope helpers", Run: runTaintWallClock},
	{Name: "taint-rand", Doc: "global rand draws reached through out-of-scope helpers", Run: runTaintRand},
	{Name: "hotpath-alloc", Doc: "allocation sites reachable from //ddbmlint:hotpath functions", Run: runHotpathAlloc},
}

func checkNameValid(name string) bool {
	for _, c := range Checks {
		if c.Name == name {
			return true
		}
	}
	for _, c := range ModuleChecks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// Pass hands one intra-unit check everything it needs for one unit.
type Pass struct {
	Fset  *token.FileSet
	Unit  *Unit
	check string
	run   *run
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Unit.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Unit.Info.ObjectOf(id) }

// Report files a diagnostic unless an annotation suppresses it.
func (p *Pass) Report(pos token.Pos, msg, hint string) {
	p.run.report(p.check, pos, msg, hint)
}

// ModulePass hands one interprocedural check the whole-run state.
type ModulePass struct {
	Config Config
	Graph  *CallGraph
	check  string
	run    *run
}

// Report files a diagnostic unless an annotation suppresses it.
func (mp *ModulePass) Report(pos token.Pos, msg, hint string) {
	mp.run.report(mp.check, pos, msg, hint)
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

// annotationFor finds an unshadowed annotation for check on line or on
// the contiguous run of annotation-bearing lines directly above it, so
// several single-annotation comment lines can stack over one site.
func (r *run) annotationFor(file string, line int, check string) *annotation {
	fa := r.anns[file]
	if fa == nil {
		return nil
	}
	if a := matchAnnotation(fa.byLine[line], check); a != nil {
		return a
	}
	for l := line - 1; ; l-- {
		anns := fa.byLine[l]
		if len(anns) == 0 {
			return nil
		}
		if a := matchAnnotation(anns, check); a != nil {
			return a
		}
	}
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

// Lint runs the whole suite over the target directories as one analysis:
// intra-unit checks per target unit, then the call graph and summaries
// over the targets plus every module package they transitively import,
// then the interprocedural checks. Diagnostics are reported only against
// target units and returned in deterministic order.
func (r *Runner) Lint(targets []Target) ([]Diagnostic, error) {
	var targetUnits []*Unit
	targetDirs := map[string]bool{}
	for _, t := range targets {
		units, err := r.Loader.LoadDir(t.Dir, t.Path)
		if err != nil {
			return nil, err
		}
		targetUnits = append(targetUnits, units...)
		for _, u := range units {
			targetDirs[u.Dir] = true
		}
	}
	allUnits := append(slices.Clip(targetUnits), r.Loader.ImportedUnits(targetDirs)...)

	rn := &run{fset: r.Loader.Fset, anns: map[string]*fileAnns{}}
	// Annotations are collected for every loaded unit so suppression works
	// wherever a finding lands, but malformed-annotation reporting and the
	// unused sweep cover only the lint targets.
	for _, u := range allUnits {
		for _, f := range u.Files {
			name := r.Loader.Fset.Position(f.Pos()).Filename
			if rn.anns[name] != nil {
				continue
			}
			rn.anns[name] = collectAnnotations(r.Loader.Fset, f, rn, !u.Imported)
		}
	}

	for _, u := range targetUnits {
		r.lintUnit(u, rn)
	}

	graph := buildCallGraph(r.Loader.Fset, allUnits, rn)
	computeSummaries(graph)
	for _, chk := range ModuleChecks {
		mp := &ModulePass{Config: r.Config, Graph: graph, check: chk.Name, run: rn}
		chk.Run(mp)
	}

	// Stale escapes are findings too: an annotation that suppressed
	// nothing means the code it excused was fixed (or never needed it).
	for _, u := range targetUnits {
		for _, f := range u.Files {
			name := r.Loader.Fset.Position(f.Pos()).Filename
			for _, a := range rn.anns[name].list {
				if a.used {
					continue
				}
				msg := fmt.Sprintf("unused ddbmlint annotation for %q", a.check)
				hint := "the annotated construct no longer triggers the check; delete the annotation"
				if a.check == "hotpath" {
					msg = "ddbmlint:hotpath annotation not attached to a function declaration"
					hint = "place //ddbmlint:hotpath on the line directly above the func declaration it pins"
				}
				rn.diags = append(rn.diags, Diagnostic{
					Pos:   token.Position{Filename: name, Line: a.line, Column: 1},
					Check: "annotation",
					Msg:   msg,
					Hint:  hint,
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
		pass := &Pass{Fset: r.Loader.Fset, Unit: u, check: chk.Name, run: rn}
		for _, f := range u.Files {
			if pol.SkipTests && u.Test[f] {
				continue
			}
			chk.Run(pass, f)
		}
	}
}
