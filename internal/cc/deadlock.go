package cc

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// txnIDLess orders transactions by ID for the deterministic visit orders
// below. Two attempts of one transaction share its ID (an aborted
// attempt's cohort may still hold locks when the restart blocks), so the
// attempt timestamp breaks the tie: the order is total, and pdqsort — not
// stable — cannot leave equal IDs in input order. That makes the victims a
// function of the graph alone, whatever the order or repetition of its
// edges. All sort call sites use slices.SortFunc (generic, no
// reflectlite.Swapper).
func txnIDLess(a, b *TxnMeta) int {
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.AttemptTS, b.AttemptTS)
}

// Edge is one waits-for relationship: Waiter is blocked by Blocker at Node.
type Edge struct {
	Waiter  *TxnMeta
	Blocker *TxnMeta
	Node    int
}

// Detector runs deadlock detection over waits-for graphs, reusing all of
// its scratch (graph arrays, DFS stack, colouring) across calls. Local 2PL
// detection runs on every block, so the holder of a long-lived Detector
// pays zero steady-state allocations; the zero value is ready to use. A
// Detector is not safe for concurrent use, and the victims slice it
// returns lives only until its next call: share one only among users
// whose calls cannot overlap — the 2PL managers of one machine share one,
// since each detection finishes inside one lock request — and never
// across simulations.
type Detector struct {
	// gen is the globally unique generation of the current detection pass
	// (drawn from detPass in load). Transactions carry their first-seen
	// rank stamped with this generation (TxnMeta.detGen/detRank); the
	// adjacency rows and the colouring/removal arrays are indexed by that
	// rank, which is stable across the ID-order sort of txns below.
	gen  uint64
	txns []*TxnMeta
	// adj's rows are carved out of the single backing array flat (deg
	// holds the out-degree counts the carving is planned from): the only
	// growth quantities are the total node and edge high-water marks,
	// which converge quickly — per-row capacities, which depend on which
	// transaction lands on which rank, never would.
	adj     [][]*TxnMeta
	flat    []*TxnMeta
	deg     []int32
	removed []bool
	color   []int8
	stack   []dfsFrame
	cycle   []*TxnMeta
	victims []*TxnMeta
}

type dfsFrame struct {
	t    *TxnMeta
	r    int // rank of t: adjacency row index
	next int
}

// detPass issues globally unique detection-pass generations (atomic so
// detectors in concurrently running simulations — parallel tests — never
// share one). Uniqueness is all that matters: a stack-allocated one-shot
// Detector at a reused address must not mistake a previous detector's
// stamps for its own.
var detPass atomic.Uint64

// Reserve pre-sizes the detector's scratch for graphs of up to nodes
// transactions and edgeCount waits-for edges, retiring the guarded growth
// allocations below for any graph within those bounds. The growth sites
// are self-amortising, but record-sized graphs arrive too rarely for a
// warmup to retire them deterministically (high-water records thin out as
// 1/t), so holders with a pinned allocation budget pre-size from their
// concurrency bound instead.
func (d *Detector) Reserve(nodes, edgeCount int) {
	if cap(d.txns) < nodes {
		d.txns = make([]*TxnMeta, 0, nodes)
	}
	if cap(d.deg) < nodes {
		d.deg = make([]int32, 0, nodes)
	}
	if cap(d.adj) < nodes {
		d.adj = make([][]*TxnMeta, 0, nodes)
	}
	if cap(d.removed) < nodes {
		d.removed = make([]bool, 0, nodes)
	}
	if cap(d.color) < nodes {
		d.color = make([]int8, 0, nodes)
	}
	if cap(d.stack) < nodes {
		d.stack = make([]dfsFrame, 0, nodes)
	}
	if cap(d.cycle) < nodes {
		d.cycle = make([]*TxnMeta, 0, nodes)
	}
	if cap(d.victims) < nodes {
		d.victims = make([]*TxnMeta, 0, nodes)
	}
	if cap(d.flat) < edgeCount {
		d.flat = make([]*TxnMeta, 0, edgeCount)
	}
}

// FindVictims detects every cycle in the waits-for graph described by edges
// and selects, per cycle, the member with the most recent initial startup
// time (largest TS) that is still abortable — the paper's deadlock
// resolution policy for 2PL. Victims are removed from the graph and
// detection repeats until the graph is acyclic. Cycles whose members are all
// unabortable (already aborting or already past the commit decision) resolve
// themselves and yield no victim.
//
// The result is deterministic: nodes are visited in transaction-ID order.
// The returned slice is the detector's own buffer, valid until the next
// call on this Detector.
func (d *Detector) FindVictims(edges []Edge) []*TxnMeta {
	d.victims = d.victims[:0]
	if len(edges) == 0 {
		return nil
	}
	d.load(edges)
	n := len(d.txns)
	if cap(d.removed) < n {
		d.removed = make([]bool, n)
	} else {
		d.removed = d.removed[:n]
		clear(d.removed)
	}
	for {
		cycle := d.findCycle()
		if cycle == nil {
			return d.victims
		}
		victim := pickVictim(cycle)
		if victim == nil {
			// Every member is already dying or committing; the cycle will
			// break on its own. Drop one member so detection terminates.
			d.removed[cycle[0].detRank] = true
			continue
		}
		d.removed[victim.detRank] = true
		d.victims = append(d.victims, victim)
	}
}

// load rebuilds the graph arrays from edges: txns in first-seen order then
// sorted by ID, adjacency rows in edge order then each sorted by ID —
// exactly the orders the former map-based construction produced, so the
// victim sequence is unchanged. Rows are carved from one flat backing
// array sized by counting out-degrees first.
func (d *Detector) load(edges []Edge) {
	d.gen = detPass.Add(1)
	d.txns = d.txns[:0]
	total := 0
	for _, e := range edges {
		if e.Waiter == e.Blocker {
			continue
		}
		d.note(e.Waiter)
		d.note(e.Blocker)
		total++
	}
	n := len(d.txns)
	if cap(d.deg) < n {
		d.deg = make([]int32, n)
	} else {
		d.deg = d.deg[:n]
		clear(d.deg)
	}
	for _, e := range edges {
		if e.Waiter != e.Blocker {
			d.deg[e.Waiter.detRank]++
		}
	}
	if cap(d.flat) < total {
		d.flat = make([]*TxnMeta, total)
	} else {
		d.flat = d.flat[:total]
	}
	if cap(d.adj) < n {
		d.adj = make([][]*TxnMeta, n)
	} else {
		d.adj = d.adj[:n]
	}
	off := 0
	for r := 0; r < n; r++ {
		end := off + int(d.deg[r])
		d.adj[r] = d.flat[off:off:end]
		off = end
	}
	for _, e := range edges {
		if e.Waiter == e.Blocker {
			continue
		}
		w := e.Waiter.detRank
		d.adj[w] = append(d.adj[w], e.Blocker)
	}
	slices.SortFunc(d.txns, txnIDLess)
	for i := range d.adj {
		slices.SortFunc(d.adj[i], txnIDLess)
	}
}

// note assigns t its first-seen rank for this pass, stamping it with the
// pass generation.
func (d *Detector) note(t *TxnMeta) {
	if t.detGen == d.gen {
		return
	}
	t.detGen = d.gen
	t.detRank = int32(len(d.txns))
	d.txns = append(d.txns, t)
}

// findCycle returns the transactions on some cycle of the graph, or nil if
// the graph (minus removed nodes) is acyclic. Iterative DFS with the
// classic white/grey/black colouring. The returned slice is the detector's
// cycle buffer, valid until the next findCycle call.
func (d *Detector) findCycle() []*TxnMeta {
	const (
		white = int8(0)
		grey  = int8(1)
		black = int8(2)
	)
	n := len(d.txns)
	if cap(d.color) < n {
		d.color = make([]int8, n)
	} else {
		d.color = d.color[:n]
		clear(d.color)
	}
	for _, start := range d.txns {
		sr := int(start.detRank)
		if d.removed[sr] || d.color[sr] != white {
			continue
		}
		d.stack = append(d.stack[:0], dfsFrame{t: start, r: sr})
		d.color[sr] = grey
		for len(d.stack) > 0 {
			f := &d.stack[len(d.stack)-1]
			succ := d.adj[f.r]
			advanced := false
			for f.next < len(succ) {
				t := succ[f.next]
				f.next++
				nr := int(t.detRank)
				if d.removed[nr] {
					continue
				}
				switch d.color[nr] {
				case white:
					d.color[nr] = grey
					d.stack = append(d.stack, dfsFrame{t: t, r: nr})
					advanced = true
				case grey:
					// Found a back edge: the cycle is t ... f.t on the stack.
					d.cycle = d.cycle[:0]
					for i := len(d.stack) - 1; i >= 0; i-- {
						d.cycle = append(d.cycle, d.stack[i].t)
						if d.stack[i].t == t {
							break
						}
					}
					return d.cycle
				}
				if advanced {
					break
				}
			}
			if !advanced {
				d.color[f.r] = black
				d.stack = d.stack[:len(d.stack)-1]
			}
		}
	}
	return nil
}

// FindVictims is the one-shot form of Detector.FindVictims for callers
// without a detection hot path (tests, invariant checks): it pays the
// scratch allocations every call and returns a slice the caller owns.
func FindVictims(edges []Edge) []*TxnMeta {
	var d Detector
	return d.FindVictims(edges)
}

// pickVictim chooses the abortable cycle member with the largest startup
// timestamp (most recently started transaction).
func pickVictim(cycle []*TxnMeta) *TxnMeta {
	var victim *TxnMeta
	for _, t := range cycle {
		if !t.Abortable() {
			continue
		}
		if victim == nil || t.TS > victim.TS || (t.TS == victim.TS && t.ID > victim.ID) {
			victim = t
		}
	}
	return victim
}

// HasCycle reports whether the waits-for graph contains any cycle,
// ignoring no nodes. Exposed for tests and invariant checks.
func HasCycle(edges []Edge) bool {
	if len(edges) == 0 {
		return false
	}
	var d Detector
	d.load(edges)
	d.removed = make([]bool, len(d.txns))
	return d.findCycle() != nil
}
