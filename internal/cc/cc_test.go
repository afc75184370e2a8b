package cc

import (
	"fmt"
	"testing"

	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

// await is a script step that runs req — a request that may park co —
// with co's continuation set to the process's, waits for the verdict if
// req returned Blocked, and stores the verdict in *out (nil drops it).
// (Package cctest offers the same step to the algorithm packages.)
func await(co *CohortMeta, req func() Outcome, out *Outcome) simtest.Step {
	blocked := false
	return func(k *sim.Cont) bool {
		var o Outcome
		if blocked {
			blocked = false
			o = co.Unblocked()
		} else {
			co.K = k
			if o = req(); o == Blocked {
				blocked = true
				return true
			}
		}
		if out != nil {
			*out = o
		}
		return false
	}
}

// lockStep is a script step requesting page in mode from lt for co and
// waiting out a queued request; the verdict lands in *out.
func lockStep(lt *LockTable, co *CohortMeta, page db.PageID, mode LockMode, out *Outcome) simtest.Step {
	return await(co, func() Outcome {
		if ok, _ := lt.Lock(co, page, mode); ok {
			return Granted
		}
		return co.Block()
	}, out)
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		TwoPL: "2PL", WoundWait: "WW", BTO: "BTO", OPT: "OPT", NoDC: "NO_DC", O2PL: "O2PL",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
		parsed, err := ParseKind(want)
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v", want, parsed, err)
		}
	}
	for _, k := range []Kind{O2PL + 1, 99, -1} {
		if want := fmt.Sprintf("Kind(%d)", int(k)); k.String() != want {
			t.Errorf("out-of-range kind renders %q, want %q", k.String(), want)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

func TestKindsOrder(t *testing.T) {
	ks := Kinds()
	if len(ks) != 5 {
		t.Fatalf("Kinds() has %d entries", len(ks))
	}
	// Paper presentation order: 2PL, BTO, WW, OPT, then the baseline.
	want := []Kind{TwoPL, BTO, WoundWait, OPT, NoDC}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("Kinds() = %v", ks)
		}
	}
}

func TestRequestAbortIdempotent(t *testing.T) {
	calls := 0
	m := &TxnMeta{ID: 1, TS: 1}
	m.OnAbort = func(fromNode int) { calls++ }
	if !m.RequestAbort(3, "first", CauseWound) {
		t.Error("first abort request refused")
	}
	if !m.RequestAbort(4, "second", CauseLocalDeadlock) {
		t.Error("repeat abort request should report accepted")
	}
	if calls != 1 {
		t.Errorf("OnAbort called %d times, want 1", calls)
	}
	if m.AbortReason != "first" {
		t.Errorf("reason %q, want the first one", m.AbortReason)
	}
	if m.AbortCause != CauseWound || m.AbortNode != 3 {
		t.Errorf("cause %v at node %d, want the first one (wound at 3)", m.AbortCause, m.AbortNode)
	}
}

func TestNoteCauseFirstWins(t *testing.T) {
	m := &TxnMeta{ID: 1}
	m.NoteCause(2, CauseBTOTooLate)
	m.NoteCause(5, CauseCoordinator)
	if m.AbortCause != CauseBTOTooLate || m.AbortNode != 2 {
		t.Errorf("cause %v at node %d, want bto-too-late at 2", m.AbortCause, m.AbortNode)
	}
	if m.AbortRequested {
		t.Error("NoteCause must not request the abort itself")
	}
}

func TestRequestAbortRefusedAfterCommitDecision(t *testing.T) {
	m := &TxnMeta{ID: 1, TS: 1, State: Committing}
	called := false
	m.OnAbort = func(int) { called = true }
	if m.RequestAbort(0, "wound", CauseWound) {
		t.Error("wound in commit phase two must be refused (not fatal)")
	}
	if called || m.AbortRequested {
		t.Error("refused abort mutated the transaction")
	}
}

func TestRequestAbortAllowedWhilePreparing(t *testing.T) {
	m := &TxnMeta{ID: 1, TS: 1, State: Preparing}
	if !m.RequestAbort(0, "wound", CauseWound) {
		t.Error("abort during phase one must be accepted")
	}
}

func TestAbortable(t *testing.T) {
	m := &TxnMeta{}
	if !m.Abortable() {
		t.Error("fresh txn should be abortable")
	}
	m.State = Committing
	if m.Abortable() {
		t.Error("committing txn should not be abortable")
	}
	m2 := &TxnMeta{AbortRequested: true}
	if m2.Abortable() {
		t.Error("already-aborting txn should not be abortable")
	}
}

func TestCohortBlockGrant(t *testing.T) {
	s := sim.New(1)
	var out Outcome
	var blockedFor sim.Time
	co := &CohortMeta{Txn: &TxnMeta{ID: 1},
		OnBlocked: func(_ *CohortMeta, d sim.Time) { blockedFor = d }}
	simtest.Go(s, await(co, co.Block, &out))
	simtest.Go(s, simtest.Delay(15), simtest.Do(func() {
		if !co.Waiting() {
			t.Error("cohort not marked waiting")
		}
		co.Grant()
	}))
	s.Run(100)
	if out != Granted {
		t.Errorf("outcome %v, want granted", out)
	}
	if blockedFor != 15 {
		t.Errorf("blocking episode %v ms, want 15", blockedFor)
	}
	if co.Waiting() {
		t.Error("cohort still waiting after grant")
	}
}

func TestCohortBlockDeny(t *testing.T) {
	s := sim.New(1)
	var out Outcome
	co := &CohortMeta{Txn: &TxnMeta{ID: 1}}
	simtest.Go(s, await(co, co.Block, &out))
	simtest.Go(s, simtest.Delay(5), simtest.Do(co.Deny))
	s.Run(100)
	if out != Aborted {
		t.Errorf("outcome %v, want aborted", out)
	}
}

func TestGrantBeforeBlockPreResolves(t *testing.T) {
	// A queued request can be granted synchronously (its blocker releases
	// before the requester parks); Block must then return immediately.
	s := sim.New(1)
	var out Outcome
	var tookTime bool
	co := &CohortMeta{Txn: &TxnMeta{ID: 1}}
	var start sim.Time
	simtest.Go(s,
		simtest.Do(func() {
			co.Grant() // verdict arrives before Block
			start = s.Now()
		}),
		await(co, co.Block, &out),
		simtest.Do(func() { tookTime = s.Now() != start }))
	s.Run(10)
	if out != Granted {
		t.Errorf("outcome %v, want granted", out)
	}
	if tookTime {
		t.Error("pre-resolved Block consumed simulated time")
	}
	if n := s.EventsDispatched(); n != 1 {
		t.Errorf("%d events dispatched, want 1: a pre-resolved Block continues inline", n)
	}
}

func TestDenyBeforeBlockPreResolves(t *testing.T) {
	s := sim.New(1)
	var out Outcome
	co := &CohortMeta{Txn: &TxnMeta{ID: 1}}
	simtest.Go(s, simtest.Do(co.Deny), await(co, co.Block, &out))
	s.Run(10)
	if out != Aborted {
		t.Errorf("outcome %v, want aborted", out)
	}
}

func TestOutcomeString(t *testing.T) {
	if Granted.String() != "granted" || Aborted.String() != "aborted" || Blocked.String() != "blocked" {
		t.Error("outcome strings wrong")
	}
	if Outcome(9).String() != "Outcome(9)" {
		t.Errorf("out-of-range outcome renders %q", Outcome(9).String())
	}
}
