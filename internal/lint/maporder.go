package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runMapOrder flags for-range loops over maps whose bodies are not
// provably order-insensitive. Go randomizes map iteration order per run,
// so any observable effect of the visit order (an append consumed
// unsorted, an early return of a visited element, a resume scheduled per
// iteration) diverges between runs with identical seeds.
//
// A loop body counts as order-insensitive when it only:
//
//   - writes through index expressions into maps (distinct-key writes
//     commute),
//   - accumulates with commutative compound assignments (+=, -=, *=,
//     |=, &=, ^=) or ++/--,
//   - deletes map keys,
//   - declares iteration-local variables,
//   - returns constants (an existence test is true regardless of which
//     iteration finds the witness),
//   - appends to slices that are explicitly sorted by a sort/slices call
//     later in the same enclosing block (the collect-then-sort idiom),
//
// with if/for/switch/block statements allowed as composition. Anything
// else — calls, sends, plain assignments of loop-dependent values, break,
// non-constant returns — is treated as order-sensitive. Loops that are
// safe for a reason the analysis cannot see carry
// //ddbmlint:ordered <why> next to their explicit ordering argument.
func runMapOrder(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		list := stmtList(n)
		if list == nil {
			return true
		}
		for i := range list {
			rs, bad := sensitiveMapRange(p.Unit.Info, list, i)
			if !bad {
				continue
			}
			p.Report(rs.For,
				"iteration over map "+types.ExprString(rs.X)+" has an order-sensitive body",
				"iterate a sorted key slice, restructure into pure reads into another map/counter, or annotate //ddbmlint:ordered <why> next to an explicit sort")
		}
		return true
	})
}

// stmtList returns the statement list a node carries, or nil.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// sensitiveMapRange reports whether list[i] is a for-range over a map
// whose body is order-sensitive (and not cleared by the collect-then-sort
// idiom against the statements that follow it).
func sensitiveMapRange(info *types.Info, list []ast.Stmt, i int) (*ast.RangeStmt, bool) {
	rs, ok := list[i].(*ast.RangeStmt)
	if !ok {
		return nil, false
	}
	if _, isMap := typeUnder(info, rs.X).(*types.Map); !isMap {
		return nil, false
	}
	c := &mapOrderLoop{info: info, appended: map[types.Object]bool{}}
	if c.insensitive(rs.Body.List) && c.sortedAfter(list[i+1:]) {
		return nil, false
	}
	return rs, true
}

func typeUnder(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// mapOrderLoop carries the analysis state of a single map-range loop.
type mapOrderLoop struct {
	info *types.Info
	// appended collects slice variables grown with x = append(x, ...);
	// the loop is only cleared if each is sorted after the loop.
	appended map[types.Object]bool
}

func (c *mapOrderLoop) insensitive(list []ast.Stmt) bool {
	for _, s := range list {
		if !c.stmtOK(s) {
			return false
		}
	}
	return true
}

func (c *mapOrderLoop) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *ast.AssignStmt:
		return c.assignOK(s)
	case *ast.IncDecStmt:
		return true
	case *ast.DeclStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && c.isBuiltin(call.Fun, "delete")
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		if !c.insensitive(s.Body.List) {
			return false
		}
		return s.Else == nil || c.stmtOK(s.Else)
	case *ast.BlockStmt:
		return c.insensitive(s.List)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if !c.isConst(r) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		// continue restarts the next iteration; break/goto select an
		// iteration-order-dependent cut point.
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.RangeStmt:
		// Inner loops inherit the outer sensitivity rules; an inner
		// map-range is additionally analyzed on its own where it appears.
		return c.insensitive(s.Body.List)
	case *ast.ForStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		if s.Post != nil && !c.stmtOK(s.Post) {
			return false
		}
		return c.insensitive(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		return c.insensitive(s.Body.List)
	case *ast.TypeSwitchStmt:
		return c.insensitive(s.Body.List)
	case *ast.CaseClause:
		return c.insensitive(s.Body)
	}
	return false
}

func (c *mapOrderLoop) assignOK(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		// Iteration-local variables.
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation.
		return true
	case token.ASSIGN:
		if obj := c.appendTarget(s); obj != nil {
			c.appended[obj] = true
			return true
		}
		for _, lhs := range s.Lhs {
			if !c.lhsOK(lhs) {
				return false
			}
		}
		return true
	}
	return false
}

// appendTarget recognizes x = append(x, ...) and returns x's object.
func (c *mapOrderLoop) appendTarget(s *ast.AssignStmt) types.Object {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !c.isBuiltin(call.Fun, "append") || len(call.Args) == 0 {
		return nil
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok || arg.Name != id.Name {
		return nil
	}
	return c.info.ObjectOf(id)
}

// lhsOK accepts write targets whose iteration-order effects cancel out:
// the blank identifier and index expressions into maps (each iteration
// writes its own key).
func (c *mapOrderLoop) lhsOK(e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name == "_"
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		_, isMap := typeUnder(c.info, ix.X).(*types.Map)
		return isMap
	}
	return false
}

func (c *mapOrderLoop) isBuiltin(fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// isConst reports whether e is a compile-time constant or nil — a value
// that is the same no matter which iteration returns it.
func (c *mapOrderLoop) isConst(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	return ok && (tv.Value != nil || tv.IsNil())
}

// sortedAfter checks that every slice collected inside the loop is passed
// to a sort (package sort or slices) by one of the statements that follow
// the loop in its enclosing block — the collect-then-sort idiom that
// launders map order into a total order.
func (c *mapOrderLoop) sortedAfter(following []ast.Stmt) bool {
	if len(c.appended) == 0 {
		return true
	}
	sorted := map[types.Object]bool{}
	for _, s := range following {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !c.isSortCall(sel) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok {
						if obj := c.info.ObjectOf(id); obj != nil {
							sorted[obj] = true
						}
					}
					return true
				})
			}
			return true
		})
	}
	for obj := range c.appended {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

var sortFns = map[string]bool{
	"Slice": true, "SliceStable": true, "Stable": true,
	"Float64s": true, "Ints": true, "Strings": true,
}

func (c *mapOrderLoop) isSortCall(sel *ast.SelectorExpr) bool {
	fn, ok := c.info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return sortFns[fn.Name()] || len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort"
	}
	return false
}
