package cc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

// fakeCohort builds a cohort that is never actually blocked in a process;
// for pure lock-table tests we only exercise enqueue/grant bookkeeping via
// the Waiting flag, so a scripted process sets its continuation when
// needed.
func fakeCohort(id int64) *CohortMeta {
	return &CohortMeta{Txn: &TxnMeta{ID: id, TS: id}}
}

var pg = func(n int) db.PageID { return db.PageID{File: 0, Page: n} }

func TestLockSharedCompatible(t *testing.T) {
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	if ok, _ := lt.Lock(a, pg(1), LockS); !ok {
		t.Fatal("first S lock not granted")
	}
	if ok, _ := lt.Lock(b, pg(1), LockS); !ok {
		t.Fatal("second S lock not granted")
	}
}

func TestLockExclusiveConflicts(t *testing.T) {
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	lt.Lock(a, pg(1), LockX)
	ok, conflicts := lt.Lock(b, pg(1), LockX)
	if ok {
		t.Fatal("conflicting X lock granted")
	}
	if len(conflicts) != 1 || conflicts[0] != a {
		t.Fatalf("conflicts = %v, want [a]", conflicts)
	}
}

func TestLockSXConflict(t *testing.T) {
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	lt.Lock(a, pg(1), LockS)
	if ok, _ := lt.Lock(b, pg(1), LockX); ok {
		t.Fatal("X granted alongside S")
	}
	lt2 := NewLockTable()
	lt2.Lock(a, pg(1), LockX)
	if ok, _ := lt2.Lock(b, pg(1), LockS); ok {
		t.Fatal("S granted alongside X")
	}
}

func TestLockReentrant(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	lt.Lock(a, pg(1), LockS)
	if ok, _ := lt.Lock(a, pg(1), LockS); !ok {
		t.Fatal("re-request of held S not granted")
	}
	lt.Lock(a, pg(2), LockX)
	if ok, _ := lt.Lock(a, pg(2), LockS); !ok {
		t.Fatal("S under held X not granted")
	}
	if ok, _ := lt.Lock(a, pg(2), LockX); !ok {
		t.Fatal("re-request of held X not granted")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	lt.Lock(a, pg(1), LockS)
	if ok, _ := lt.Lock(a, pg(1), LockX); !ok {
		t.Fatal("sole-holder upgrade not immediate")
	}
	if m, _ := lt.Holds(a, pg(1)); m != LockX {
		t.Fatalf("mode after upgrade %v, want X", m)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	s := sim.New(1)
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	lt.Lock(a, pg(1), LockS)
	lt.Lock(b, pg(1), LockS)

	var out Outcome
	simtest.Go(s, await(a, func() Outcome {
		ok, conflicts := lt.Lock(a, pg(1), LockX)
		if ok {
			t.Error("upgrade granted with another reader present")
			return Aborted
		}
		if len(conflicts) != 1 || conflicts[0] != b {
			t.Errorf("upgrade conflicts %v, want [b]", conflicts)
		}
		return a.Block()
	}, &out))
	simtest.Go(s, simtest.Delay(10), simtest.Do(func() { lt.ReleaseAll(b) }))
	s.Run(100)
	if out != Granted {
		t.Fatal("upgrade never granted after reader release")
	}
	if m, _ := lt.Holds(a, pg(1)); m != LockX {
		t.Fatal("upgrade did not set X mode")
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	// a holds S; c queues for X; a upgrades — the upgrade must be served
	// before c's X when a is sole holder again.
	s := sim.New(1)
	lt := NewLockTable()
	a, b, c := fakeCohort(1), fakeCohort(2), fakeCohort(3)
	lt.Lock(a, pg(1), LockS)
	lt.Lock(b, pg(1), LockS)

	var order []string
	simtest.Go(s,
		lockStep(lt, c, pg(1), LockX, nil),
		simtest.Do(func() {
			order = append(order, "c")
			lt.ReleaseAll(c)
		}))
	simtest.Go(s,
		simtest.Delay(1),
		lockStep(lt, a, pg(1), LockX, nil),
		simtest.Do(func() {
			order = append(order, "a")
			lt.ReleaseAll(a)
		}))
	simtest.Go(s, simtest.Delay(5), simtest.Do(func() { lt.ReleaseAll(b) }))
	s.Run(100)
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Fatalf("service order %v, want upgrade (a) before queued writer (c)", order)
	}
}

func TestQueueFIFONoOvertaking(t *testing.T) {
	// S request behind a queued X request must wait (no starvation of X).
	lt := NewLockTable()
	a, b, c := fakeCohort(1), fakeCohort(2), fakeCohort(3)
	lt.Lock(a, pg(1), LockS)
	if ok, _ := lt.Lock(b, pg(1), LockX); ok {
		t.Fatal("X granted alongside S")
	}
	ok, conflicts := lt.Lock(c, pg(1), LockS)
	if ok {
		t.Fatal("S overtook queued X")
	}
	// c waits for b (queued ahead, conflicting).
	found := false
	for _, cf := range conflicts {
		if cf == b {
			found = true
		}
	}
	if !found {
		t.Errorf("S behind X: conflicts %v should include the queued X", conflicts)
	}
}

func TestReleasePromotesBatchOfReaders(t *testing.T) {
	s := sim.New(1)
	lt := NewLockTable()
	w := fakeCohort(1)
	lt.Lock(w, pg(1), LockX)
	granted := 0
	for i := 0; i < 3; i++ {
		r := fakeCohort(int64(10 + i))
		var out Outcome
		simtest.Go(s,
			lockStep(lt, r, pg(1), LockS, &out),
			simtest.Do(func() {
				if out == Granted {
					granted++
				}
			}))
	}
	simtest.Go(s, simtest.Delay(10), simtest.Do(func() { lt.ReleaseAll(w) }))
	s.Run(100)
	if granted != 3 {
		t.Fatalf("%d readers granted after X release, want all 3 (batch promote)", granted)
	}
}

func TestRemoveWaiterPromotes(t *testing.T) {
	s := sim.New(1)
	lt := NewLockTable()
	a, b, c := fakeCohort(1), fakeCohort(2), fakeCohort(3)
	lt.Lock(a, pg(1), LockS)
	var cOut Outcome
	simtest.Go(s, lockStep(lt, b, pg(1), LockX, nil)) // removed, then denied, below
	simtest.Go(s, simtest.Delay(1), lockStep(lt, c, pg(1), LockS, &cOut))
	simtest.Go(s, simtest.Delay(5), simtest.Do(func() {
		lt.RemoveWaiter(b)
		if b.Waiting() {
			b.Deny()
		}
	}))
	s.Run(100)
	if cOut != Granted {
		t.Fatal("removing the queued X did not unblock the compatible S behind it")
	}
}

func TestReleaseAllIdempotent(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	lt.Lock(a, pg(1), LockS)
	lt.Lock(a, pg(2), LockX)
	lt.ReleaseAll(a)
	lt.ReleaseAll(a) // second call must be a no-op
	if !lt.Empty() {
		t.Fatal("table not empty after release")
	}
}

func TestHeldCount(t *testing.T) {
	lt := NewLockTable()
	a := fakeCohort(1)
	lt.Lock(a, pg(1), LockS)
	lt.Lock(a, pg(2), LockS)
	lt.Lock(a, pg(2), LockX) // upgrade, same page
	if n := lt.HeldCount(a); n != 2 {
		t.Errorf("held count %d, want 2", n)
	}
}

func TestWaitsForEdges(t *testing.T) {
	lt := NewLockTable()
	a, b, c := fakeCohort(1), fakeCohort(2), fakeCohort(3)
	lt.Lock(a, pg(1), LockX)
	lt.Lock(b, pg(1), LockX) // b waits for a
	lt.Lock(c, pg(1), LockS) // c waits for a (holder) and b (queued ahead)
	edges := lt.WaitsForEdges(0)
	type pair struct{ w, h int64 }
	got := map[pair]bool{}
	for _, e := range edges {
		got[pair{e.Waiter.ID, e.Blocker.ID}] = true
		if e.Node != 0 {
			t.Errorf("edge node %d, want 0", e.Node)
		}
	}
	for _, want := range []pair{{2, 1}, {3, 1}, {3, 2}} {
		if !got[want] {
			t.Errorf("missing edge %v in %v", want, got)
		}
	}
}

func TestWaitsForEdgesUpgradeDeadlockVisible(t *testing.T) {
	// Two S holders both requesting upgrades: classic conversion deadlock;
	// both edges must appear.
	lt := NewLockTable()
	a, b := fakeCohort(1), fakeCohort(2)
	lt.Lock(a, pg(1), LockS)
	lt.Lock(b, pg(1), LockS)
	lt.Lock(a, pg(1), LockX)
	lt.Lock(b, pg(1), LockX)
	edges := lt.WaitsForEdges(0)
	if !HasCycle(edges) {
		t.Fatal("conversion deadlock not visible in waits-for graph")
	}
}

func TestCompatible(t *testing.T) {
	if !Compatible(LockS, LockS) {
		t.Error("S-S should be compatible")
	}
	if Compatible(LockS, LockX) || Compatible(LockX, LockS) || Compatible(LockX, LockX) {
		t.Error("X conflicts with everything")
	}
}

func TestLockModeString(t *testing.T) {
	if LockS.String() != "S" || LockX.String() != "X" {
		t.Error("lock mode strings wrong")
	}
}

// TestLockTableRandomOpsInvariants drives the table with random operations
// inside a simulation and checks structural invariants throughout: at most
// one X holder per page, no holder+waiter duplicates, and full quiescence
// at the end.
func TestLockTableRandomOpsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		s := sim.New(seed)
		lt := NewLockTable()
		r := rand.New(rand.NewSource(seed))
		const nCohorts = 12
		ok := true
		check := func() {
			indexed := 0
			for _, row := range lt.rows {
				for _, e := range row {
					if e == nil {
						continue
					}
					indexed++
					page := e.page
					x := 0
					holders := map[*CohortMeta]bool{}
					for h := e.hhead; h != nil; h = h.next {
						if h.mode == LockX {
							x++
						}
						if holders[h.co] {
							t.Errorf("duplicate holder on %v", page)
							ok = false
						}
						holders[h.co] = true
					}
					if x > 1 {
						t.Errorf("%d X holders on %v", x, page)
						ok = false
					}
					if x == 1 && e.hlen != 1 {
						t.Errorf("X shared with others on %v", page)
						ok = false
					}
				}
			}
			if indexed != lt.Size() {
				t.Errorf("Size() = %d, but %d pages are indexed", lt.Size(), indexed)
				ok = false
			}
		}
		var cohorts []*CohortMeta
		for i := 0; i < nCohorts; i++ {
			co := fakeCohort(int64(i + 1))
			cohorts = append(cohorts, co)
			l := &randomLocker{lt: lt, co: co, r: r, check: check}
			co.K = &l.k
			l.k.Init(s, l.step)
			l.k.Resume()
		}
		// A watchdog breaks deadlocks the random workload creates, playing
		// the role of the deadlock detector.
		var watchdog sim.Cont
		started := false
		watchdog.Init(s, func() {
			if started {
				victims := FindVictims(lt.WaitsForEdges(0))
				for _, v := range victims {
					v.AbortRequested = true
					// Find the victim's cohort, deny it and release its locks.
					for _, co := range cohorts {
						if co.Txn == v {
							lt.RemoveWaiter(co)
							if co.Waiting() {
								co.Deny()
							}
							lt.ReleaseAll(co)
						}
					}
				}
			}
			started = true
			watchdog.Delay(20)
		})
		watchdog.Resume()
		s.Run(10000)
		check()
		return ok && lt.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomLocker is one cohort of the randomized lock-table property test:
// ten rounds of think, lock a random page in a random mode (waiting out a
// queued request), hold, and sometimes release — stopping early when
// denied — then release everything.
type randomLocker struct {
	k     sim.Cont
	lt    *LockTable
	co    *CohortMeta
	r     *rand.Rand
	check func()
	round int
	stage int
}

func (l *randomLocker) step() {
	for {
		switch l.stage {
		case 0: // think before the next request
			if l.round == 10 {
				l.lt.ReleaseAll(l.co)
				l.check()
				return
			}
			l.stage = 1
			l.k.Delay(float64(l.r.Intn(5)))
			return
		case 1: // request
			page := pg(l.r.Intn(4))
			mode := LockS
			if l.r.Intn(2) == 0 {
				mode = LockX
			}
			l.stage = 3
			if granted, _ := l.lt.Lock(l.co, page, mode); !granted {
				out := l.co.Block()
				if out == Blocked {
					l.stage = 2
					return
				}
				if out == Aborted {
					l.round = 10
					l.stage = 0
				}
			}
		case 2: // resumed with the verdict
			l.stage = 3
			if l.co.Unblocked() == Aborted {
				l.round = 10
				l.stage = 0
			}
		case 3: // hold
			l.check()
			l.stage = 4
			l.k.Delay(float64(l.r.Intn(3)))
			return
		case 4: // maybe release early
			if l.r.Intn(3) == 0 {
				l.lt.ReleaseAll(l.co)
			}
			l.round++
			l.stage = 0
		}
	}
}
