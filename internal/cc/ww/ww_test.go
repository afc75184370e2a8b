package ww

import (
	"math/rand"
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func pg(n int) db.PageID { return db.PageID{File: 0, Page: n} }

func newTxn(id int64) *cc.TxnMeta { return &cc.TxnMeta{ID: id, TS: id} }

func TestKindAndGlobal(t *testing.T) {
	a := New()
	if a.Kind() != cc.WoundWait {
		t.Fatal("wrong kind")
	}
	a.StartGlobal(nil) // must be a no-op, nil-safe
	m := a.NewManager(cc.Env{Sim: sim.New(1), Node: 0})
	if m.Kind() != cc.WoundWait {
		t.Fatal("manager wrong kind")
	}
}

func TestOlderWoundsYounger(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	m := mi.(*manager)
	young := &cc.CohortMeta{Txn: newTxn(5), Node: 0}
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	wounded := false
	young.Txn.OnAbort = func(fromNode int) {
		wounded = true
		if r := young.Txn.AbortReason; r != "wounded" {
			t.Errorf("reason %q", r)
		}
		mi.Abort(young) // coordinator delivers the abort
	}
	var oldOut cc.Outcome
	var oldGrantedAt sim.Time
	simtest.Go(s, cctest.Access(mi, young, pg(1), true, nil))
	simtest.Go(s,
		simtest.Delay(10),
		cctest.Access(mi, old, pg(1), true, &oldOut), // older: wounds the holder, waits
		simtest.Do(func() { oldGrantedAt = s.Now() }))
	s.Run(1000)
	if !wounded {
		t.Fatal("younger holder not wounded")
	}
	if oldOut != cc.Granted {
		t.Fatalf("old outcome %v, want granted", oldOut)
	}
	if oldGrantedAt != 10 {
		t.Fatalf("old granted at %v, want 10 (immediately after wound release)", oldGrantedAt)
	}
	if m.Wounds() != 1 {
		t.Fatalf("wound count %d, want 1", m.Wounds())
	}
}

func TestYoungerWaitsForOlder(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(5), Node: 0}
	aborted := false
	old.Txn.OnAbort = func(int) { aborted = true }
	var youngOut cc.Outcome
	var youngAt sim.Time
	simtest.Go(s,
		cctest.Access(mi, old, pg(1), true, nil),
		simtest.Delay(30),
		simtest.Do(func() {
			old.Txn.State = cc.Committing
			mi.Commit(old)
		}))
	simtest.Go(s,
		simtest.Delay(5),
		cctest.Access(mi, young, pg(1), true, &youngOut),
		simtest.Do(func() { youngAt = s.Now() }))
	s.Run(1000)
	if aborted {
		t.Fatal("older holder was wounded by a younger requester")
	}
	if youngOut != cc.Granted || youngAt != 30 {
		t.Fatalf("young: %v at %v, want granted at 30", youngOut, youngAt)
	}
	if mi.(*manager).Wounds() != 0 {
		t.Fatal("wound counted for younger-waits case")
	}
}

func TestWoundIgnoredInSecondPhase(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	young := &cc.CohortMeta{Txn: newTxn(5), Node: 0}
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young.Txn.OnAbort = func(int) {
		t.Error("wound delivered to committing transaction")
	}
	var oldAt sim.Time
	simtest.Go(s,
		cctest.Access(mi, young, pg(1), true, nil),
		simtest.Do(func() { young.Txn.State = cc.Committing }), // commit decision made
		simtest.Delay(40),
		simtest.Do(func() { mi.Commit(young) }))
	var oldOut cc.Outcome
	simtest.Go(s,
		simtest.Delay(10),
		cctest.Access(mi, old, pg(1), true, &oldOut),
		simtest.Do(func() {
			if oldOut == cc.Granted {
				oldAt = s.Now()
			}
		}))
	s.Run(1000)
	if oldAt != 40 {
		t.Fatalf("old granted at %v, want 40 (waited for the committing younger txn)", oldAt)
	}
	if mi.(*manager).Wounds() != 0 {
		t.Fatal("immune wound was counted")
	}
}

func TestSharedReadsNoWounds(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	n := 0
	for i := 0; i < 4; i++ {
		co := &cc.CohortMeta{Txn: newTxn(int64(i + 1)), Node: 0}
		co.Txn.OnAbort = func(int) { t.Error("read sharing caused a wound") }
		var out cc.Outcome
		simtest.Go(s, cctest.Access(mi, co, pg(1), false, &out), simtest.Do(func() {
			if out == cc.Granted {
				n++
			}
		}))
	}
	s.Run(100)
	if n != 4 {
		t.Fatalf("%d readers granted, want 4", n)
	}
}

func TestUpgradeWoundsYoungerReader(t *testing.T) {
	// Old reads, young reads, old upgrades: the young reader (standing in
	// the way of the upgrade) gets wounded.
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(9), Node: 0}
	young.Txn.OnAbort = func(int) { mi.Abort(young) }
	var upOut cc.Outcome
	simtest.Go(s,
		cctest.Access(mi, old, pg(1), false, nil),
		simtest.Delay(10),
		cctest.Access(mi, old, pg(1), true, &upOut))
	simtest.Go(s, simtest.Delay(1), cctest.Access(mi, young, pg(1), false, nil))
	s.Run(1000)
	if upOut != cc.Granted {
		t.Fatalf("upgrade outcome %v, want granted after wound", upOut)
	}
	if !young.Txn.AbortRequested {
		t.Fatal("young reader not wounded by upgrade")
	}
}

func TestNoDeadlockEverProperty(t *testing.T) {
	// Wound-wait's invariant: the waits-for graph never contains a cycle,
	// because only younger-waits-for-older edges persist. Drive a random
	// workload and assert acyclicity throughout.
	s := sim.New(77)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	m := mi.(*manager)
	r := s.Rand()
	for i := 0; i < 16; i++ {
		id := int64(i + 1)
		co := &cc.CohortMeta{Txn: newTxn(id), Node: 0}
		co.Txn.OnAbort = func(int) {
			s.After(float64(r.Intn(3)), func() { mi.Abort(co) })
		}
		w := &randomWorker{t: t, m: m, co: co, r: r}
		co.K = &w.k
		w.k.Init(s, w.step)
		w.k.Resume()
	}
	s.Run(100000)
	if !m.LockTable().Empty() {
		// Cohorts killed at shutdown may hold locks; drain instead: this
		// check only fires if the run finished naturally above.
		t.Log("note: table not empty at cutoff (in-flight cohorts)")
	}
}

// randomWorker is one transaction of the acyclicity property test: up to
// six random accesses with random pauses, checking the waits-for graph
// after each, stopping when aborted, then committing.
type randomWorker struct {
	k       sim.Cont
	t       *testing.T
	m       *manager
	co      *cc.CohortMeta
	r       *rand.Rand
	j       int
	waiting bool
}

func (w *randomWorker) step() {
	var out cc.Outcome
	if w.waiting {
		w.waiting = false
		out = w.co.Unblocked()
	} else {
		if w.j == 6 {
			w.co.Txn.State = cc.Committing
			w.m.Commit(w.co)
			return
		}
		if w.co.Txn.AbortRequested {
			return
		}
		page := pg(w.r.Intn(3))
		write := w.r.Intn(2) == 0
		if out = w.m.Access(w.co, page, write); out == cc.Blocked {
			w.waiting = true
			return
		}
	}
	if out == cc.Aborted {
		return
	}
	if cc.HasCycle(w.m.WaitsForEdges()) {
		w.t.Error("wound-wait produced a waits-for cycle")
		return
	}
	w.j++
	w.k.Delay(float64(w.r.Intn(5)))
}
