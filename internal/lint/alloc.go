package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// allocSite is one construct that allocates (or cannot be proven not
// to): its position and a human-readable description.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocExternal are standard-library calls audited as allocation-free,
// keyed by package path; an empty set allows the whole package. Anything
// external and not listed here is opaque to the analysis and flagged on
// hot paths.
var allocExternal = map[string]map[string]bool{
	"math":      nil, // pure arithmetic
	"math/bits": nil, // pure integer arithmetic on words
	"cmp":       nil, // comparisons
	"math/rand": {
		// The table-driven and rejection-sampling draws on an existing
		// *rand.Rand are allocation-free; constructors and Perm are not.
		"Intn": true, "Int63": true, "Int31n": true, "Int63n": true,
		"Float64": true, "ExpFloat64": true, "NormFloat64": true,
	},
	"sync/atomic": nil, // lock-free loads/stores/RMWs on existing memory
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
		"BinarySearch": true, "BinarySearchFunc": true,
		"Index": true, "IndexFunc": true, "Contains": true, "ContainsFunc": true,
		"Min": true, "MinFunc": true, "Max": true, "MaxFunc": true,
		"Reverse": true, "IsSorted": true, "IsSortedFunc": true, "Clip": true,
	},
}

func externalAllowed(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return true
	}
	fns, ok := allocExternal[fn.Pkg().Path()]
	if !ok {
		return false
	}
	return fns == nil || fns[fn.Name()]
}

// extractAllocs records every definite allocation site and every opaque
// (unverifiable) call site in n's own body. The rules, and what they
// deliberately let through:
//
//   - new, make, &composite{}, slice and map literals, nested function
//     literals (closure capture), string concatenation and string<->byte
//     conversions, go statements: definite sites.
//   - append: a definite site (amortized growth still allocates when it
//     grows) unless the buffer is rooted at one of n's own parameters —
//     the caller-owned-buffer idiom, where amortization is the caller's
//     audited responsibility — or an inline x[:0] reslice, the explicit
//     buffer-reuse idiom.
//   - value struct literals are allowed: they cannot heap-allocate
//     unless boxed or address-taken, which are flagged separately.
//   - interface boxing: any non-constant, non-nil, non-pointer-shaped
//     value converted to an interface (call argument, assignment,
//     return, explicit conversion) is a definite site; pointer-shaped
//     values (pointers, channels, maps, funcs) fit the interface word.
//   - static calls into the module are not sites — the hot-path walk
//     follows the edge instead; external calls are allowed only on the
//     audited allowlist; interface dispatch and function values are
//     opaque and flagged as unverifiable.
//   - map index writes and defer are not flagged (map growth and defer
//     frames are runtime-internal and pre-sized on the repo's hot
//     paths); the runtime AllocsPerRun pins remain the backstop there.
func extractAllocs(g *CallGraph, n *FuncNode) {
	info := n.Unit.Info
	addrLits := map[*ast.CompositeLit]bool{}
	walkOwnBody(n, func(x ast.Node) {
		if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if cl, ok := unparen(u.X).(*ast.CompositeLit); ok {
				addrLits[cl] = true
			}
		}
	})
	add := func(pos token.Pos, what string) {
		n.allocs = append(n.allocs, allocSite{pos: pos, what: what})
	}
	opaque := func(pos token.Pos, what string) {
		n.opaque = append(n.opaque, allocSite{pos: pos, what: what})
	}
	walkOwnBody(n, func(x ast.Node) {
		switch x := x.(type) {
		case *ast.CallExpr:
			n.extractCallAllocs(g, x, add, opaque)
		case *ast.CompositeLit:
			if addrLits[x] {
				add(x.Pos(), "composite literal escaping to the heap")
				return
			}
			switch typeUnder(info, x).(type) {
			case *types.Slice:
				add(x.Pos(), "slice literal")
			case *types.Map:
				add(x.Pos(), "map literal")
			}
		case *ast.FuncLit:
			if lit := unparen(x); lit == n.Lit {
				return
			}
			if !immediatelyCalled(n, x) {
				add(x.Pos(), "function literal (closure)")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) && info.Types[x].Value == nil {
				add(x.Pos(), "string concatenation")
			}
		case *ast.GoStmt:
			add(x.Pos(), "go statement")
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) && x.Tok == token.ASSIGN {
				for i := range x.Lhs {
					if boxes(info, x.Rhs[i], info.TypeOf(x.Lhs[i])) {
						add(x.Rhs[i].Pos(), "interface boxing in assignment")
					}
				}
			}
		case *ast.ReturnStmt:
			res := n.Sig.Results()
			if len(x.Results) == res.Len() {
				for i, r := range x.Results {
					if boxes(info, r, res.At(i).Type()) {
						add(r.Pos(), "interface boxing in return")
					}
				}
			}
		}
	})
}

// immediatelyCalled reports whether lit appears as the Fun of a call in
// n's body — func(){...}() creates no closure value that outlives the
// call, and the hot-path walk follows the static edge into the literal.
func immediatelyCalled(n *FuncNode, lit *ast.FuncLit) bool {
	for _, site := range n.Calls {
		if site.Kind == callStatic && unparen(site.Call.Fun) == lit {
			return true
		}
	}
	return false
}

// extractCallAllocs handles one call expression: builtins, conversions,
// external calls, dynamic calls, and boxing at the arguments.
func (n *FuncNode) extractCallAllocs(g *CallGraph, call *ast.CallExpr, add, opaque func(token.Pos, string)) {
	info := n.Unit.Info
	fun := unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion: string<->[]byte/[]rune copy, or boxing into an
		// interface type.
		target := info.TypeOf(fun)
		if len(call.Args) == 1 {
			if stringByteConversion(info, target, call.Args[0]) {
				add(call.Pos(), "string conversion")
			} else if boxes(info, call.Args[0], target) {
				add(call.Pos(), "interface boxing in conversion")
			}
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				add(call.Pos(), "new")
			case "make":
				add(call.Pos(), "make")
			case "append":
				if !n.appendExempt(call) {
					add(call.Pos(), "append growth beyond capacity")
				}
			case "panic":
				if len(call.Args) == 1 && boxes(info, call.Args[0], anyType) {
					add(call.Args[0].Pos(), "interface boxing in panic")
				}
			}
			return
		}
	}
	site := g.classifyCall(info, call)
	if site == nil {
		return
	}
	switch site.Kind {
	case callStatic:
		if site.External != nil && !externalAllowed(site.External) {
			opaque(call.Pos(), fmt.Sprintf("call to external function %s not audited allocation-free", shortFuncName(site.External)))
		}
	case callInterface:
		name := "method"
		if site.External != nil {
			name = site.External.Name()
		}
		opaque(call.Pos(), fmt.Sprintf("dynamic dispatch through interface method %s", name))
	case callIndirect:
		opaque(call.Pos(), "dynamic call through a function value")
	}
	// Boxing at argument positions applies to every real call, module-
	// internal or not: the conversion happens in this frame.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil && call.Ellipsis == token.NoPos {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt != nil && boxes(info, arg, pt) {
				add(arg.Pos(), "interface boxing in call argument")
			}
		}
	}
}

// appendExempt reports whether an append call grows a caller-owned
// buffer: the base slice is rooted at one of n's parameters, or is an
// inline x[:0] reslice (explicit reuse of an existing backing array).
func (n *FuncNode) appendExempt(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	base := unparen(call.Args[0])
	for {
		switch b := base.(type) {
		case *ast.SliceExpr:
			if isZeroReslice(b) {
				return true
			}
			base = unparen(b.X)
		case *ast.Ident:
			if obj := n.Unit.Info.Uses[b]; obj != nil && n.params[obj] {
				return true
			}
			return false
		default:
			return false
		}
	}
}

// isZeroReslice matches x[:0] (and x[0:0]).
func isZeroReslice(s *ast.SliceExpr) bool {
	if s.Slice3 || s.High == nil {
		return false
	}
	lit, ok := unparen(s.High).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

func stringByteConversion(info *types.Info, target types.Type, arg ast.Expr) bool {
	at := info.TypeOf(arg)
	if at == nil || target == nil {
		return false
	}
	// Constant string conversions are folded at compile time.
	if tv := info.Types[arg]; tv.Value != nil {
		return false
	}
	return (isStringType(target) && isByteOrRuneSlice(at)) ||
		(isByteOrRuneSlice(target) && isStringType(at))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

var anyType = types.Universe.Lookup("any").Type()

// boxes reports whether assigning expr to a target of type target
// converts a non-interface value into an interface, allocating unless
// the value is constant (static data), nil, or pointer-shaped (fits the
// interface data word directly).
func boxes(info *types.Info, expr ast.Expr, target types.Type) bool {
	if target == nil || !types.IsInterface(target) {
		return false
	}
	t := info.TypeOf(expr)
	if t == nil || types.IsInterface(t) {
		return false
	}
	if tv := info.Types[expr]; tv.Value != nil || tv.IsNil() {
		return false
	}
	return !pointerShaped(t)
}

// pointerShaped reports whether t's values occupy exactly one pointer
// word, so converting them to an interface stores the value directly.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
