package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallSite is one call expression inside a function body, with the
// module-internal callee candidates it may reach. A call that leaves the
// module (the standard library) has none.
type CallSite struct {
	Pos     token.Pos
	Callees []*FuncNode
}

// FuncNode is one function in the module: a declared function or method,
// or a function literal. Nodes are indexed in deterministic order
// (unit order, then file order, then source position).
type FuncNode struct {
	Index    int
	Name     string // qualified display name for chains
	PkgPath  string // the owning unit's scope path
	Unit     *Unit
	File     *ast.File
	TestFile bool
	Decl     *ast.FuncDecl // nil for literals
	Lit      *ast.FuncLit  // nil for declarations
	Body     *ast.BlockStmt
	Sig      *types.Signature

	Calls []*CallSite // source order

	// Summary state (summary.go): direct facts observed in this body and
	// the fixpoint facts including everything reachable through Calls.
	direct factSet
	facts  factSet
	// directSite holds the position of the first construct that set each
	// direct fact bit, for chain reporting.
	directSite map[factSet]token.Pos
}

// CallGraph is the whole-module graph: every function in every loaded
// unit, with conservative over-approximated edges for dynamic calls.
type CallGraph struct {
	Fset  *token.FileSet
	Nodes []*FuncNode

	// byPos bridges type-checking views: the import view and the unit
	// view of a package are checked from the same parsed files, so a
	// *types.Func from either view has the position of the one
	// declaration, which is the node key.
	byPos map[token.Pos]*FuncNode

	// methodsBySig indexes non-test declared methods by name plus
	// receiver-stripped signature, the candidate set for interface
	// dispatch.
	methodsBySig map[string][]*FuncNode
	// takenBySig indexes non-test address-taken functions (declared
	// functions referenced outside call position, and function literals)
	// by signature, the candidate set for indirect calls.
	takenBySig map[string][]*FuncNode
}

// sigKey renders a signature with package-path qualification and the
// receiver stripped, so method values and interface methods compare equal
// to plain functions of the same shape.
func sigKey(sig *types.Signature) string {
	stripped := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(stripped, func(p *types.Package) string { return p.Path() })
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// buildCallGraph constructs the whole-module call graph over units. The
// node order, edge order, and candidate order are all derived from
// source order, so the graph (and everything computed from it) is
// deterministic.
func buildCallGraph(fset *token.FileSet, units []*Unit) *CallGraph {
	g := &CallGraph{
		Fset:         fset,
		byPos:        map[token.Pos]*FuncNode{},
		methodsBySig: map[string][]*FuncNode{},
		takenBySig:   map[string][]*FuncNode{},
	}
	// Pass 1: create a node for every function declaration and literal.
	for _, u := range units {
		for _, f := range u.Files {
			g.addFileNodes(u, f)
		}
	}
	// Pass 2: resolve call sites and index dynamic-dispatch candidates.
	taken := g.collectAddressTaken(units)
	for _, n := range g.Nodes {
		if n.Decl != nil && n.Decl.Recv != nil && !n.TestFile {
			key := n.Decl.Name.Name + "|" + sigKey(n.Sig)
			g.methodsBySig[key] = append(g.methodsBySig[key], n)
		}
		if taken[n] && !n.TestFile {
			key := sigKey(n.Sig)
			g.takenBySig[key] = append(g.takenBySig[key], n)
		}
	}
	for _, n := range g.Nodes {
		g.resolveCalls(n)
	}
	return g
}

// addFileNodes creates nodes for every function declaration in f and
// every function literal nested inside, in source order.
func (g *CallGraph) addFileNodes(u *Unit, f *ast.File) {
	isTest := u.Test[f]
	for _, d := range f.Decls {
		decl, ok := d.(*ast.FuncDecl)
		if !ok || decl.Body == nil {
			continue
		}
		obj, _ := u.Info.Defs[decl.Name].(*types.Func)
		if obj == nil {
			continue
		}
		n := &FuncNode{
			Index: len(g.Nodes), Name: shortFuncName(obj),
			PkgPath: u.Path, Unit: u, File: f, TestFile: isTest,
			Decl: decl, Body: decl.Body,
			Sig: obj.Type().(*types.Signature),
		}
		g.Nodes = append(g.Nodes, n)
		g.byPos[decl.Name.Pos()] = n
		g.addLitNodes(u, f, n)
	}
}

// addLitNodes creates nodes for the function literals directly inside
// parent's own body (not inside deeper literals), named after the
// enclosing declaration, then recurses so every literal at every depth
// gets a node in source order.
func (g *CallGraph) addLitNodes(u *Unit, f *ast.File, parent *FuncNode) {
	count := 0
	var children []*FuncNode
	walkOwnBody(parent, func(x ast.Node) {
		lit, ok := x.(*ast.FuncLit)
		if !ok || lit == parent.Lit {
			return
		}
		sig, _ := u.Info.TypeOf(lit).(*types.Signature)
		if sig == nil {
			return
		}
		count++
		ln := &FuncNode{
			Index:   len(g.Nodes),
			Name:    parent.Name + ".func" + itoa(count),
			PkgPath: u.Path, Unit: u, File: f, TestFile: parent.TestFile,
			Lit: lit, Body: lit.Body, Sig: sig,
		}
		g.Nodes = append(g.Nodes, ln)
		g.byPos[lit.Pos()] = ln
		children = append(children, ln)
	})
	for _, ln := range children {
		g.addLitNodes(u, f, ln)
	}
}

// shortFuncName renders obj as pkgname.Func or pkgname.(Recv).Method.
func shortFuncName(obj *types.Func) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + name
	}
	return name
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// collectAddressTaken finds every declared function or literal whose
// value escapes into a variable, field, argument, or composite literal —
// the candidate set for indirect calls. References in call position are
// not address-taken.
func (g *CallGraph) collectAddressTaken(units []*Unit) map[*FuncNode]bool {
	taken := map[*FuncNode]bool{}
	for _, u := range units {
		for _, f := range u.Files {
			// Call-position expressions (and immediately invoked
			// literals) are plain calls, not escapes.
			callFun := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					callFun[unparen(call.Fun)] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.FuncLit:
					if !callFun[e] {
						if node := g.byPos[e.Pos()]; node != nil {
							taken[node] = true
						}
					}
				case *ast.Ident:
					if fn, ok := u.Info.Uses[e].(*types.Func); ok && !callFun[e] {
						if node := g.byPos[fn.Pos()]; node != nil {
							taken[node] = true
						}
					}
				case *ast.SelectorExpr:
					if fn, ok := u.Info.Uses[e.Sel].(*types.Func); ok && !callFun[e] {
						if node := g.byPos[fn.Pos()]; node != nil {
							taken[node] = true
						}
					}
				}
				return true
			})
		}
	}
	return taken
}

// resolveCalls walks n's body (excluding nested literals, which own their
// calls) and records a CallSite for every call expression.
func (g *CallGraph) resolveCalls(n *FuncNode) {
	info := n.Unit.Info
	walkOwnBody(n, func(x ast.Node) {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return
		}
		if site := g.classifyCall(info, call); site != nil {
			n.Calls = append(n.Calls, site)
		}
	})
}

// walkOwnBody visits every node in n's body except the bodies of nested
// function literals, which are separate graph nodes. The literal node
// itself is visited (it is a construct of this body — a closure value)
// but its statements are not.
func walkOwnBody(n *FuncNode, visit func(ast.Node)) {
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		visit(x)
		_, isLit := x.(*ast.FuncLit)
		return !isLit
	})
}

// classifyCall resolves one call expression to a CallSite, or nil for
// conversions and builtins.
func (g *CallGraph) classifyCall(info *types.Info, call *ast.CallExpr) *CallSite {
	fun := unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil // conversion
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return nil
		case *types.Func:
			return g.staticSite(call, obj)
		case *types.Var:
			return g.indirectSite(info, call)
		case nil:
			// Defs, not Uses: impossible in call position; treat indirect.
			return g.indirectSite(info, call)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return g.interfaceSite(call, fn)
				}
				return g.staticSite(call, fn)
			case types.FieldVal:
				return g.indirectSite(info, call)
			}
			return g.indirectSite(info, call)
		}
		// Qualified identifier pkg.F.
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			return g.staticSite(call, obj)
		case *types.Var:
			return g.indirectSite(info, call)
		}
	case *ast.FuncLit:
		// Immediately invoked literal: a static edge to its node.
		if node := g.byPos[f.Pos()]; node != nil {
			return &CallSite{Pos: call.Pos(), Callees: []*FuncNode{node}}
		}
	}
	return g.indirectSite(info, call)
}

// staticSite resolves a call of exactly one statically known function: a
// package function or a method on a concrete receiver.
func (g *CallGraph) staticSite(call *ast.CallExpr, fn *types.Func) *CallSite {
	site := &CallSite{Pos: call.Pos()}
	if node := g.byPos[fn.Pos()]; node != nil {
		site.Callees = []*FuncNode{node}
	}
	return site
}

// interfaceSite over-approximates interface dispatch: every non-test
// module method with the same name and receiver-stripped signature is a
// candidate. This is deliberately coarser than a points-to analysis —
// see DESIGN.md §13 for why over-approximation is the right trade.
func (g *CallGraph) interfaceSite(call *ast.CallExpr, fn *types.Func) *CallSite {
	key := fn.Name() + "|" + sigKey(fn.Type().(*types.Signature))
	return &CallSite{Pos: call.Pos(), Callees: g.methodsBySig[key]}
}

// indirectSite over-approximates a call through a function value
// (variable, field, parameter, call result): every non-test address-taken
// module function with the same signature is a candidate.
func (g *CallGraph) indirectSite(info *types.Info, call *ast.CallExpr) *CallSite {
	site := &CallSite{Pos: call.Pos()}
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		site.Callees = g.takenBySig[sigKey(sig)]
	}
	return site
}
