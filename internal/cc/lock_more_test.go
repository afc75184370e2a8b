package cc

import (
	"testing"

	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func TestUpgradeQueuesBehindEarlierUpgrade(t *testing.T) {
	// a and b both hold S and both upgrade: a's upgrade queues first, b's
	// behind it; conflicts returned for b must include a.
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	lt.Lock(a, pg(1), LockS)
	lt.Lock(b, pg(1), LockS)
	if ok, _ := lt.Lock(a, pg(1), LockX); ok {
		t.Fatal("upgrade granted with another holder")
	}
	ok, conflicts := lt.Lock(b, pg(1), LockX)
	if ok {
		t.Fatal("second upgrade granted")
	}
	foundA := false
	for _, c := range conflicts {
		if c == a {
			foundA = true
		}
	}
	if !foundA {
		t.Errorf("second upgrade's conflicts %v must include the first upgrader", conflicts)
	}
}

func TestRemoveWaiterOnNonWaiterNoOp(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	lt.RemoveWaiter(a) // never waited: no-op
	lt.Lock(a, pg(1), LockS)
	lt.RemoveWaiter(a) // holder, not waiter: no-op
	if _, held := lt.Holds(a, pg(1)); !held {
		t.Fatal("RemoveWaiter dropped a held lock")
	}
}

func TestHoldsReportsMode(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	if _, held := lt.Holds(a, pg(1)); held {
		t.Fatal("phantom lock")
	}
	lt.Lock(a, pg(1), LockS)
	if m, held := lt.Holds(a, pg(1)); !held || m != LockS {
		t.Fatalf("Holds = %v,%v", m, held)
	}
}

func TestEmptyOnFreshTable(t *testing.T) {
	if !NewLockTable().Empty() {
		t.Fatal("fresh table not empty")
	}
}

func TestWaitsForEdgesEmptyWhenNoWaiters(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	lt.Lock(a, pg(1), LockX)
	if edges := lt.WaitsForEdges(0); len(edges) != 0 {
		t.Fatalf("edges %v with no waiters", edges)
	}
}

func TestSameTxnTwoCohortsDontConflictInEdges(t *testing.T) {
	// Two cohorts of the same transaction (different nodes in reality;
	// same table here) must not generate self waits-for edges.
	lt := NewLockTable()
	txn := &TxnMeta{ID: 1, TS: 1}
	c1 := &CohortMeta{Txn: txn}
	c2 := &CohortMeta{Txn: txn}
	lt.Lock(c1, pg(1), LockX)
	lt.Lock(c2, pg(1), LockX) // queued behind its own transaction
	for _, e := range lt.WaitsForEdges(0) {
		if e.Waiter == e.Blocker {
			t.Fatal("self edge emitted")
		}
	}
}

func TestPromoteAfterDownToZeroHolders(t *testing.T) {
	s := sim.New(1)
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	lt.Lock(a, pg(1), LockX)
	var got Outcome
	simtest.Go(s, lockStep(lt, b, pg(1), LockX, &got), simtest.Do(func() { lt.ReleaseAll(b) }))
	simtest.Go(s, simtest.Delay(5), simtest.Do(func() { lt.ReleaseAll(a) }))
	s.Run(100)
	if got != Granted {
		t.Fatalf("outcome %v", got)
	}
	if !lt.Empty() {
		t.Fatal("table not empty")
	}
}

func TestLockManyDistinctPages(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	for i := 0; i < 100; i++ {
		if ok, _ := lt.Lock(a, db.PageID{File: i % 8, Page: i}, LockX); !ok {
			t.Fatal("uncontended lock denied")
		}
	}
	if lt.HeldCount(a) != 100 {
		t.Fatalf("held %d, want 100", lt.HeldCount(a))
	}
	lt.ReleaseAll(a)
	if !lt.Empty() {
		t.Fatal("not empty after release")
	}
}
