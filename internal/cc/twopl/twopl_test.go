package twopl

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func pg(n int) db.PageID { return db.PageID{File: 0, Page: n} }

func newTxn(id int64) *cc.TxnMeta { return &cc.TxnMeta{ID: id, TS: id} }

func TestKind(t *testing.T) {
	a := New(1000)
	if a.Kind() != cc.TwoPL {
		t.Fatal("wrong kind")
	}
	m := a.NewManager(cc.Env{Sim: sim.New(1), Node: 0})
	if m.Kind() != cc.TwoPL {
		t.Fatal("manager wrong kind")
	}
}

func TestReadersShare(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0})
	granted := 0
	for i := 0; i < 3; i++ {
		co := &cc.CohortMeta{Txn: newTxn(int64(i + 1)), Node: 0}
		var out cc.Outcome
		simtest.Go(s, cctest.Access(m, co, pg(1), false, &out), simtest.Do(func() {
			if out == cc.Granted {
				granted++
			}
		}))
	}
	s.Run(100)
	if granted != 3 {
		t.Fatalf("%d readers granted, want 3", granted)
	}
}

func TestWriterBlocksUntilCommit(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0})
	holder := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	waiter := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	var grantedAt sim.Time
	simtest.Go(s,
		cctest.Access(m, holder, pg(1), true, nil),
		simtest.Delay(50),
		simtest.Do(func() {
			holder.Txn.State = cc.Committing
			m.Commit(holder)
		}))
	var out cc.Outcome
	simtest.Go(s,
		simtest.Delay(1),
		cctest.Access(m, waiter, pg(1), true, &out),
		simtest.Do(func() {
			if out == cc.Granted {
				grantedAt = s.Now()
			}
		}))
	s.Run(1000)
	if grantedAt != 50 {
		t.Fatalf("waiter granted at %v, want 50 (commit time)", grantedAt)
	}
}

func TestLocalDeadlockVictimIsYoungest(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0})
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	var abortedTxn int64
	abortedNode := -1
	for _, co := range []*cc.CohortMeta{old, young} {
		co.Txn.OnAbort = func(fromNode int) {
			abortedTxn = 0
			if co == old {
				abortedTxn = 1
			} else {
				abortedTxn = 2
			}
			abortedNode = fromNode
			// Play the coordinator: deliver the abort to the manager.
			m.Abort(co)
		}
	}
	outcomes := map[int64]cc.Outcome{}
	var oldOut, youngOut cc.Outcome
	simtest.Go(s,
		cctest.Access(m, old, pg(1), true, nil),
		simtest.Delay(10),
		cctest.Access(m, old, pg(2), true, &oldOut), // blocks on young -> deadlock
		simtest.Do(func() {
			if oldOut == cc.Granted {
				old.Txn.State = cc.Committing
				m.Commit(old)
			}
		}))
	simtest.Go(s,
		simtest.Delay(1),
		cctest.Access(m, young, pg(2), true, nil),
		simtest.Delay(10),
		cctest.Access(m, young, pg(1), true, &youngOut)) // completes the cycle
	s.Run(1000)
	outcomes[1], outcomes[2] = oldOut, youngOut
	if abortedTxn != 2 {
		t.Fatalf("victim txn %d, want 2 (youngest)", abortedTxn)
	}
	if abortedNode != 0 {
		t.Fatalf("abort from node %d, want 0", abortedNode)
	}
	if outcomes[2] != cc.Aborted {
		t.Fatalf("young outcome %v, want aborted", outcomes[2])
	}
	if outcomes[1] != cc.Granted {
		t.Fatalf("old outcome %v, want granted after victim release", outcomes[1])
	}
}

func TestAccessAfterAbortRequestedRejected(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0})
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	co.Txn.AbortRequested = true
	var out cc.Outcome
	simtest.Go(s, cctest.Access(m, co, pg(1), false, &out))
	s.Run(10)
	if out != cc.Aborted {
		t.Fatal("access by aborting transaction was granted")
	}
}

func TestAbortIdempotentAndReleases(t *testing.T) {
	s := sim.New(1)
	mi := New(1000).NewManager(cc.Env{Sim: s, Node: 0})
	m := mi.(*manager)
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	other := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	var otherOut cc.Outcome
	simtest.Go(s, cctest.Access(mi, co, pg(1), true, nil))
	simtest.Go(s, simtest.Delay(1), cctest.Access(mi, other, pg(1), true, &otherOut))
	simtest.Go(s, simtest.Delay(10), simtest.Do(func() {
		mi.Abort(co)
		mi.Abort(co) // idempotent
	}))
	s.Run(1000)
	if otherOut != cc.Granted {
		t.Fatalf("waiter outcome %v after holder abort, want granted", otherOut)
	}
	s2 := sim.New(1)
	_ = s2
	// After the waiter commits, the table must be empty.
	other.Txn.State = cc.Committing
	mi.Commit(other)
	if !m.LockTable().Empty() {
		t.Fatal("lock table not empty at end")
	}
}

func TestPrepareAlwaysYes(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0})
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	if !m.Prepare(co) {
		t.Fatal("2PL prepare voted no")
	}
}

// fakeGlobal implements cc.GlobalEnv over two managers with a zero-cost
// network, for Snoop tests.
type fakeGlobal struct {
	s    *sim.Sim
	mgrs []cc.Manager
	msgs int
}

func (g *fakeGlobal) Sim() *sim.Sim                 { return g.s }
func (g *fakeGlobal) NumProcNodes() int             { return len(g.mgrs) }
func (g *fakeGlobal) ManagerAt(node int) cc.Manager { return g.mgrs[node] }
func (g *fakeGlobal) SendControl(from, to int, deliver func()) {
	g.msgs++
	g.s.After(0.5, deliver)
}

func TestSnoopResolvesGlobalDeadlock(t *testing.T) {
	s := sim.New(1)
	alg := New(100) // 100 ms detection interval
	m0 := alg.NewManager(cc.Env{Sim: s, Node: 0})
	m1 := alg.NewManager(cc.Env{Sim: s, Node: 1})
	g := &fakeGlobal{s: s, mgrs: []cc.Manager{m0, m1}}
	alg.StartGlobal(g)

	// T1 holds page0@node0, then wants page0@node1.
	// T2 holds page0@node1, then wants page0@node0.
	// Each node's local graph has one edge; only the union has the cycle.
	t1, t2 := newTxn(1), newTxn(2)
	t1c0 := &cc.CohortMeta{Txn: t1, Node: 0}
	t1c1 := &cc.CohortMeta{Txn: t1, Node: 1}
	t2c0 := &cc.CohortMeta{Txn: t2, Node: 0}
	t2c1 := &cc.CohortMeta{Txn: t2, Node: 1}
	var victim int64
	for id, cos := range map[int64][]*cc.CohortMeta{1: {t1c0, t1c1}, 2: {t2c0, t2c1}} {
		id := id
		cos := cos
		cos[0].Txn.OnAbort = func(fromNode int) {
			victim = id
			if r := cos[0].Txn.AbortReason; r != "global deadlock" {
				t.Errorf("abort reason %q", r)
			}
			m0.Abort(cos[0])
			m1.Abort(cos[1])
		}
	}
	outcome := map[int64]cc.Outcome{}
	var o1, o2 cc.Outcome
	simtest.Go(s,
		cctest.Access(m0, t1c0, pg(0), true, nil),
		simtest.Delay(5),
		cctest.Access(m1, t1c1, pg(0), true, &o1),
		simtest.Do(func() {
			if o1 == cc.Granted {
				t1.State = cc.Committing
				m0.Commit(t1c0)
				m1.Commit(t1c1)
			}
		}))
	simtest.Go(s,
		cctest.Access(m1, t2c1, pg(0), true, nil),
		simtest.Delay(5),
		cctest.Access(m0, t2c0, pg(0), true, &o2))
	s.Run(5000)
	outcome[1], outcome[2] = o1, o2
	if victim != 2 {
		t.Fatalf("snoop victim %d, want 2 (youngest)", victim)
	}
	if outcome[2] != cc.Aborted || outcome[1] != cc.Granted {
		t.Fatalf("outcomes %v, want t1 granted / t2 aborted", outcome)
	}
	if g.msgs == 0 {
		t.Fatal("snoop gathered no messages")
	}
}

func TestSnoopSkippedOnSingleNode(t *testing.T) {
	s := sim.New(1)
	alg := New(100)
	g := &fakeGlobal{s: s, mgrs: []cc.Manager{alg.NewManager(cc.Env{Sim: s, Node: 0})}}
	alg.StartGlobal(g)
	s.Run(1000)
	if g.msgs != 0 {
		t.Fatal("snoop ran on a single-node machine")
	}
}

func TestWaitsForEdgesExported(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 3}).(*manager)
	a := &cc.CohortMeta{Txn: newTxn(1), Node: 3}
	b := &cc.CohortMeta{Txn: newTxn(2), Node: 3}
	simtest.Go(s, cctest.Access(m, a, pg(1), true, nil))
	simtest.Go(s, simtest.Delay(1), cctest.Access(m, b, pg(1), true, nil))
	s.Run(10)
	edges := m.WaitsForEdges()
	if len(edges) != 1 || edges[0].Waiter.ID != 2 || edges[0].Blocker.ID != 1 || edges[0].Node != 3 {
		t.Fatalf("edges %+v", edges)
	}
}
