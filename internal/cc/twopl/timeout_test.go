package twopl

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func TestTimeoutBreaksDeadlock(t *testing.T) {
	s := sim.New(1)
	alg := NewWithTimeout(100)
	m := alg.NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	alg.StartGlobal(nil) // must be a nil-safe no-op in timeout mode

	a := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	b := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	for _, co := range []*cc.CohortMeta{a, b} {
		co := co
		co.Txn.OnAbort = func(int) {
			s.After(1, func() { m.Abort(co) })
		}
	}
	out := map[int64]cc.Outcome{}
	var outA, outB cc.Outcome
	simtest.Go(s,
		cctest.Access(m, a, pg(1), true, nil),
		simtest.Delay(10),
		cctest.Access(m, a, pg(2), true, &outA),
		simtest.Do(func() {
			if outA == cc.Granted {
				a.Txn.State = cc.Committing
				m.Commit(a)
			}
		}))
	simtest.Go(s,
		simtest.Delay(1),
		cctest.Access(m, b, pg(2), true, nil),
		simtest.Delay(10),
		cctest.Access(m, b, pg(1), true, &outB))
	s.Run(10000)
	out[1], out[2] = outA, outB
	// Both wait; both time out around t=110-111 (no detection picks a
	// single victim in the pure timeout scheme) — the essential behaviour
	// is that neither waits forever.
	if out[1] != cc.Aborted && out[2] != cc.Aborted {
		t.Fatalf("deadlock survived the timeout: %v", out)
	}
	if m.Timeouts() == 0 {
		t.Fatal("no timeout recorded")
	}
}

func TestTimeoutNotFiredOnShortWait(t *testing.T) {
	s := sim.New(1)
	m := NewWithTimeout(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	holder := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	waiter := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	waiter.Txn.OnAbort = func(int) { t.Error("short wait aborted") }
	var out cc.Outcome
	simtest.Go(s,
		cctest.Access(m, holder, pg(1), true, nil),
		simtest.Delay(50), // well under the timeout
		simtest.Do(func() {
			holder.Txn.State = cc.Committing
			m.Commit(holder)
		}))
	simtest.Go(s,
		simtest.Delay(1),
		cctest.Access(m, waiter, pg(1), true, &out),
		simtest.Do(func() {
			if out == cc.Granted {
				waiter.Txn.State = cc.Committing
				m.Commit(waiter)
			}
		}))
	s.Run(10000)
	if out != cc.Granted {
		t.Fatalf("waiter outcome %v", out)
	}
	if m.Timeouts() != 0 {
		t.Fatal("timeout fired for a wait shorter than the limit")
	}
}

func TestPrepareDeferredAcquiresAndVotes(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	voted := false
	var vote bool
	m.PrepareDeferred(co, []db.PageID{pg(1), pg(2)}, func(ok bool) {
		voted = true
		vote = ok
	})
	s.Run(100)
	if !voted || !vote {
		t.Fatalf("deferred prepare voted=%v ok=%v", voted, vote)
	}
	if mode, held := m.lt.Holds(co, pg(1)); !held || mode != cc.LockX {
		t.Fatal("deferred prepare did not take the X lock")
	}
	co.Txn.State = cc.Committing
	m.Commit(co)
	if !m.lt.Empty() {
		t.Fatal("locks leaked after commit")
	}
}

func TestPrepareDeferredDeadlockVictimVotesNo(t *testing.T) {
	// Two transactions defer write locks on each other's pages: their
	// prepare phases deadlock; local detection kills the younger, which
	// votes no; the older votes yes.
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	for _, co := range []*cc.CohortMeta{old, young} {
		co := co
		co.Txn.OnAbort = func(int) {
			s.After(1, func() { m.Abort(co) })
		}
	}
	votes := map[int64]bool{}
	// Work phase: each transaction already holds one page...
	simtest.Go(s,
		cctest.Access(m, old, pg(1), true, nil),
		cctest.Access(m, young, pg(2), true, nil),
		simtest.Do(func() {
			old.Txn.State = cc.Preparing
			young.Txn.State = cc.Preparing
			// ...and each defers its write lock on the other's page: a
			// cycle that only forms during the prepare phase.
			m.PrepareDeferred(old, []db.PageID{pg(2)}, func(ok bool) { votes[1] = ok })
			m.PrepareDeferred(young, []db.PageID{pg(1)}, func(ok bool) { votes[2] = ok })
		}))
	s.Run(10000)
	if len(votes) != 2 {
		t.Fatalf("votes %v: a deferred prepare never completed", votes)
	}
	if !votes[1] || votes[2] {
		t.Fatalf("votes %v, want old=yes young=no", votes)
	}
}

func TestPrepareDeferredAbortedTxnVotesNoImmediately(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	co.Txn.AbortRequested = true
	var vote bool
	voted := false
	m.PrepareDeferred(co, []db.PageID{pg(1)}, func(ok bool) { voted = true; vote = ok })
	s.Run(100)
	if !voted || vote {
		t.Fatalf("aborting txn deferred prepare: voted=%v vote=%v, want no", voted, vote)
	}
	if !m.lt.Empty() {
		t.Fatal("aborting deferred prepare took locks")
	}
}

func TestStaleTimerDoesNotAbortLaterWait(t *testing.T) {
	// Wait 1 resolves quickly; its timer fires while the cohort is in a
	// *different* wait that has not exceeded the timeout. The stale timer
	// must not abort it.
	s := sim.New(1)
	m := NewWithTimeout(100).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	h1 := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	h2 := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	w := &cc.CohortMeta{Txn: newTxn(3), Node: 0}
	w.Txn.OnAbort = func(int) { t.Error("stale timer aborted a healthy wait") }
	simtest.Go(s,
		cctest.Access(m, h1, pg(1), true, nil),
		simtest.Delay(50),
		simtest.Do(func() {
			h1.Txn.State = cc.Committing
			m.Commit(h1) // releases pg1 at t=50, waiter 1st wait lasted 49ms
		}))
	simtest.Go(s,
		cctest.Access(m, h2, pg(2), true, nil),
		simtest.Delay(130),
		simtest.Do(func() {
			h2.Txn.State = cc.Committing
			m.Commit(h2) // releases pg2 at t=130; waiter's 2nd wait = 80ms < 100
		}))
	var first, out cc.Outcome
	simtest.Go(s,
		simtest.Delay(1),
		cctest.Access(m, w, pg(1), true, &first), // waits 1..50
		simtest.When(func() bool {
			if first != cc.Granted {
				t.Error("first wait failed")
			}
			return first == cc.Granted
		}, cctest.Access(m, w, pg(2), true, &out))) // waits 50..130; stale timer fires ~101
	s.Run(10000)
	if out != cc.Granted {
		t.Fatalf("second wait outcome %v, want granted", out)
	}
	if m.Timeouts() != 0 {
		t.Fatalf("%d timeouts fired", m.Timeouts())
	}
}

func TestStaleTimerDoesNotAbortNextAttempt(t *testing.T) {
	// A cohort record waits at t=1, so its timer is due at 101; it is
	// granted at 50 and commits. The pool then hands the record to the
	// next attempt, which blocks at t=60 on a page held until t=120. That
	// wait is shorter than the timeout, so the first attempt's timer must
	// not abort it.
	s := sim.New(1)
	m := NewWithTimeout(100).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	h1 := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	h2 := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	rec := &cc.CohortMeta{Txn: newTxn(3), Node: 0}
	simtest.Go(s,
		cctest.Access(m, h1, pg(1), true, nil),
		simtest.Delay(50),
		simtest.Do(func() {
			h1.Txn.State = cc.Committing
			m.Commit(h1) // releases pg1 at t=50
		}))
	simtest.Go(s,
		cctest.Access(m, h2, pg(2), true, nil),
		simtest.Delay(120),
		simtest.Do(func() {
			h2.Txn.State = cc.Committing
			m.Commit(h2) // releases pg2 at t=120
		}))
	var first, out cc.Outcome
	simtest.Go(s,
		simtest.Delay(1),
		cctest.Access(m, rec, pg(1), true, &first), // waits 1..50
		simtest.Do(func() {
			if first != cc.Granted {
				t.Errorf("first attempt's wait: %v, want granted", first)
			}
			rec.Txn.State = cc.Committing
			m.Commit(rec)
			// Reuse the record for the next attempt, as the transaction
			// manager's cohort pool does.
			*rec = cc.CohortMeta{Txn: newTxn(4), Node: 0}
			rec.Txn.OnAbort = func(int) { t.Error("the first attempt's timer aborted the next attempt") }
		}),
		simtest.Delay(10),
		cctest.Access(m, rec, pg(2), true, &out)) // waits 60..120, past the first attempt's deadline
	s.Run(10000)
	if out != cc.Granted {
		t.Fatalf("next attempt's wait: %v, want granted", out)
	}
	if m.Timeouts() != 0 {
		t.Fatalf("%d timeouts fired", m.Timeouts())
	}
}

func TestPrepareDeferredUpgradesHeldReadLock(t *testing.T) {
	// O2PL's common case: the cohort read the page (S) during its work
	// phase and upgrades to X at prepare.
	s := sim.New(1)
	m := NewO2PL(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	if m.Kind() != cc.O2PL {
		t.Fatal("manager kind not O2PL")
	}
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	other := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	other.Txn.OnAbort = func(int) { s.After(1, func() { m.Abort(other) }) }
	var vote bool
	var reads [2]cc.Outcome
	simtest.Go(s,
		cctest.Access(m, co, pg(1), false, &reads[0]),
		cctest.Access(m, other, pg(1), false, &reads[1]),
		simtest.When(func() bool {
			if reads != [2]cc.Outcome{cc.Granted, cc.Granted} {
				t.Errorf("reads %v, want both granted", reads)
				return false
			}
			return true
		},
			simtest.Do(func() {
				co.Txn.State = cc.Preparing
				m.PrepareDeferred(co, []db.PageID{pg(1)}, func(ok bool) { vote = ok })
			}),
			// The upgrade waits for the other reader; release it shortly.
			simtest.Delay(10),
			simtest.Do(func() {
				other.Txn.State = cc.Committing
				m.Commit(other)
			})))
	s.Run(1000)
	if !vote {
		t.Fatal("upgrade-at-prepare never granted")
	}
	if mode, held := m.lt.Holds(co, pg(1)); !held || mode != cc.LockX {
		t.Fatal("upgrade did not leave an X lock")
	}
}
