package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// factSet is the summary lattice: a bitset of determinism-relevant facts
// a function exhibits directly or through anything it can call. The
// lattice is a finite powerset ordered by inclusion, and propagation
// only ever adds bits, so the fixpoint below terminates and is
// independent of visit order.
type factSet uint8

const (
	factWallClock factSet = 1 << iota // reads or waits on the host clock
	factRand                          // draws from the global math/rand source
)

func (f factSet) has(b factSet) bool { return f&b != 0 }

// computeSummaries extracts every node's direct facts, then propagates
// facts from callees to callers until nothing changes. Nodes are visited
// in index order (source order) and the transfer function is monotone
// over a finite lattice, so the result is a deterministic least fixpoint
// regardless of how many sweeps it takes.
func computeSummaries(g *CallGraph) {
	for _, n := range g.Nodes {
		extractDirect(n)
		n.facts = n.direct
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			for _, site := range n.Calls {
				for _, callee := range site.Callees {
					if add := callee.facts &^ n.facts; add != 0 {
						n.facts |= add
						changed = true
					}
				}
			}
		}
	}
}

// extractDirect records the facts n's own body exhibits, with the
// position of the first witness of each for chain reporting. Nested
// function literals are separate nodes and contribute nothing here.
func extractDirect(n *FuncNode) {
	n.directSite = map[factSet]token.Pos{}
	info := n.Unit.Info
	set := func(f factSet, pos token.Pos) {
		if !n.direct.has(f) {
			n.direct |= f
			n.directSite[f] = pos
		}
	}
	walkOwnBody(n, func(x ast.Node) {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if fn := wallClockRef(info, sel); fn != nil {
			set(factWallClock, sel.Pos())
		}
		if fn := globalRandRef(info, sel); fn != nil {
			set(factRand, sel.Pos())
		}
	})
}

// factChain renders a call chain from n to a direct witness of fact, for
// diagnostic hints: "a -> b -> c (file.go:12)". The walk greedily follows
// the first callee (in call-site order) still carrying the fact, with a
// visited set so cyclic graphs terminate; the graph's deterministic edge
// order makes the chain deterministic.
func factChain(g *CallGraph, n *FuncNode, fact factSet) string {
	var parts []string
	visited := map[*FuncNode]bool{}
	cur := n
	for {
		parts = append(parts, cur.Name)
		visited[cur] = true
		if cur.direct.has(fact) {
			pos := g.Fset.Position(cur.directSite[fact])
			return fmt.Sprintf("%s (%s:%d)", strings.Join(parts, " -> "), filepath.Base(pos.Filename), pos.Line)
		}
		var next *FuncNode
	scan:
		for _, site := range cur.Calls {
			for _, c := range site.Callees {
				if c.facts.has(fact) && !visited[c] {
					next = c
					break scan
				}
			}
		}
		if next == nil {
			return strings.Join(parts, " -> ")
		}
		cur = next
	}
}
