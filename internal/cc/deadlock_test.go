package cc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func txn(id int64) *TxnMeta { return &TxnMeta{ID: id, TS: id} }

func edges(ts ...*TxnMeta) []Edge {
	// pairs: waiter, blocker, waiter, blocker, ...
	var es []Edge
	for i := 0; i+1 < len(ts); i += 2 {
		es = append(es, Edge{Waiter: ts[i], Blocker: ts[i+1]})
	}
	return es
}

func TestNoCycleNoVictims(t *testing.T) {
	a, b, c := txn(1), txn(2), txn(3)
	es := edges(a, b, b, c) // chain, no cycle
	if HasCycle(es) {
		t.Fatal("chain misdetected as cycle")
	}
	if v := FindVictims(es); len(v) != 0 {
		t.Fatalf("victims %v on acyclic graph", v)
	}
}

func TestTwoCycleYoungestDies(t *testing.T) {
	old, young := txn(1), txn(5)
	es := edges(old, young, young, old)
	v := FindVictims(es)
	if len(v) != 1 || v[0] != young {
		t.Fatalf("victims %v, want the youngest (TS=5)", v)
	}
}

func TestThreeCycle(t *testing.T) {
	a, b, c := txn(1), txn(2), txn(9)
	es := edges(a, b, b, c, c, a)
	v := FindVictims(es)
	if len(v) != 1 || v[0] != c {
		t.Fatalf("victims %v, want c (most recent)", v)
	}
}

func TestTwoDisjointCycles(t *testing.T) {
	a, b := txn(1), txn(2)
	c, d := txn(3), txn(4)
	es := append(edges(a, b, b, a), edges(c, d, d, c)...)
	v := FindVictims(es)
	if len(v) != 2 {
		t.Fatalf("victims %v, want one per cycle", v)
	}
	got := map[*TxnMeta]bool{v[0]: true, v[1]: true}
	if !got[b] || !got[d] {
		t.Fatalf("victims %v, want b and d", v)
	}
}

func TestOverlappingCyclesOneVictimMayBreakBoth(t *testing.T) {
	// a<->c and b<->c share c (the youngest): killing c breaks both.
	a, b, c := txn(1), txn(2), txn(9)
	es := append(edges(a, c, c, a), edges(b, c, c, b)...)
	v := FindVictims(es)
	if len(v) != 1 || v[0] != c {
		t.Fatalf("victims %v, want just c", v)
	}
}

func TestVictimSkipsCommitting(t *testing.T) {
	old := txn(1)
	young := txn(5)
	young.State = Committing // wound immune
	es := edges(old, young, young, old)
	v := FindVictims(es)
	if len(v) != 1 || v[0] != old {
		t.Fatalf("victims %v, want the old one (young is committing)", v)
	}
}

func TestAllUnabortableNoVictims(t *testing.T) {
	a, b := txn(1), txn(2)
	a.State = Committing
	b.AbortRequested = true
	es := edges(a, b, b, a)
	if v := FindVictims(es); len(v) != 0 {
		t.Fatalf("victims %v on self-resolving cycle", v)
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	a := txn(1)
	es := []Edge{{Waiter: a, Blocker: a}}
	if HasCycle(es) {
		t.Fatal("self edge treated as cycle")
	}
	if v := FindVictims(es); len(v) != 0 {
		t.Fatalf("victims %v for self edge", v)
	}
}

func TestVictimTieBreakByID(t *testing.T) {
	a := &TxnMeta{ID: 1, TS: 7}
	b := &TxnMeta{ID: 2, TS: 7}
	es := edges(a, b, b, a)
	v := FindVictims(es)
	if len(v) != 1 || v[0] != b {
		t.Fatalf("equal-TS tie should break by larger ID, got %v", v)
	}
}

func TestFindVictimsDeterministic(t *testing.T) {
	mk := func() []Edge {
		a, b, c, d := txn(4), txn(3), txn(2), txn(1)
		return append(edges(a, b, b, a), edges(c, d, d, c, a, c)...)
	}
	v1 := FindVictims(mk())
	v2 := FindVictims(mk())
	if len(v1) != len(v2) {
		t.Fatal("nondeterministic victim count")
	}
	for i := range v1 {
		if v1[i].ID != v2[i].ID {
			t.Fatal("nondeterministic victim order")
		}
	}
}

func TestFindVictimsMakesGraphAcyclicProperty(t *testing.T) {
	// Property: removing the victims always leaves the graph acyclic, and
	// victims are only chosen from cycle participants.
	f := func(pairs []uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8
		txns := make([]*TxnMeta, n)
		for i := range txns {
			txns[i] = txn(int64(i + 1))
		}
		var es []Edge
		for i := 0; i+1 < len(pairs) && i < 40; i += 2 {
			w := txns[int(pairs[i])%n]
			h := txns[int(pairs[i+1])%n]
			es = append(es, Edge{Waiter: w, Blocker: h, Node: r.Intn(3)})
		}
		victims := FindVictims(es)
		dead := map[*TxnMeta]bool{}
		for _, v := range victims {
			dead[v] = true
		}
		var remaining []Edge
		for _, e := range es {
			if !dead[e.Waiter] && !dead[e.Blocker] {
				remaining = append(remaining, e)
			}
		}
		return !HasCycle(remaining)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHasCycleLargeChain(t *testing.T) {
	// A long chain plus one back edge: cycle detected; without it: none.
	const n = 200
	txns := make([]*TxnMeta, n)
	for i := range txns {
		txns[i] = txn(int64(i + 1))
	}
	var es []Edge
	for i := 0; i+1 < n; i++ {
		es = append(es, Edge{Waiter: txns[i], Blocker: txns[i+1]})
	}
	if HasCycle(es) {
		t.Fatal("chain misdetected")
	}
	es = append(es, Edge{Waiter: txns[n-1], Blocker: txns[0]})
	if !HasCycle(es) {
		t.Fatal("big cycle missed")
	}
	v := FindVictims(es)
	if len(v) != 1 || v[0] != txns[n-1] {
		t.Fatalf("victim %v, want the youngest", v)
	}
}

// TestFindVictimsOrderIndependent checks that the victims depend on the
// waits-for graph only, not on how its edges are listed: random graphs
// give the same victims, in the same order, after their edges are
// shuffled and some repeated. The Snoop relies on this when it gathers
// each node's edges in request-arrival order, and a node's snapshot may
// repeat an edge (one waiter behind two of a blocker's locks). Some
// transactions are second attempts that share their predecessor's ID and
// TS, as when an aborted attempt still holds locks while its restart
// waits; some are unabortable.
func TestFindVictimsOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var d Detector
	for g := 0; g < 500; g++ {
		n := 2 + r.Intn(10)
		txns := make([]*TxnMeta, n)
		for i := range txns {
			id := int64(i + 1)
			if i > 0 && r.Intn(4) == 0 {
				id = txns[r.Intn(i)].ID // a later attempt of an earlier transaction
			}
			txns[i] = &TxnMeta{ID: id, TS: id, AttemptTS: int64(100 + i)}
			switch r.Intn(8) {
			case 0:
				txns[i].State = Committing
			case 1:
				txns[i].AbortRequested = true
			}
		}
		es := make([]Edge, 1+r.Intn(4*n))
		for i := range es {
			es[i] = Edge{Waiter: txns[r.Intn(n)], Blocker: txns[r.Intn(n)], Node: r.Intn(3)}
		}
		want := slices.Clone(d.FindVictims(es))
		for k := 0; k < 4; k++ {
			perm := slices.Clone(es)
			for i := range perm {
				if r.Intn(3) == 0 {
					perm = append(perm, perm[i])
				}
			}
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := d.FindVictims(perm); !slices.Equal(got, want) {
				t.Fatalf("graph %d: victims %v for the reordered edges, %v for the original", g, ids(got), ids(want))
			}
			if got := FindVictims(perm); !slices.Equal(got, want) {
				t.Fatalf("graph %d: one-shot victims %v for the reordered edges, %v for the original", g, ids(got), ids(want))
			}
		}
	}
}

func ids(ts []*TxnMeta) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}
