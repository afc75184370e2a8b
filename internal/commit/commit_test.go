package commit

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/network"
	"ddbm/internal/sim"
)

// fakeMgr is a minimal cc.Manager: every access granted, Prepare votes as
// configured, and commit/abort calls are counted per cohort.
type fakeMgr struct {
	prepareOK bool
	onPrepare func() // runs before the vote is computed
	prepares  int
	commits   int
	aborts    int
}

func (f *fakeMgr) Kind() cc.Kind                                               { return cc.NoDC }
func (f *fakeMgr) Access(co *cc.CohortMeta, page db.PageID, w bool) cc.Outcome { return cc.Granted }
func (f *fakeMgr) Prepare(co *cc.CohortMeta) bool {
	f.prepares++
	if f.onPrepare != nil {
		f.onPrepare()
	}
	return f.prepareOK
}
func (f *fakeMgr) Commit(co *cc.CohortMeta) { f.commits++ }
func (f *fakeMgr) Abort(co *cc.CohortMeta)  { f.aborts++ }
func (f *fakeMgr) PrepareDeferred(co *cc.CohortMeta, pages []db.PageID, done func(ok bool)) {
	done(f.prepareOK)
}

// testEnv is a mock Env over a real simulator: message sends deliver after
// zero delay, log forces take one simulated millisecond, and every call is
// counted.
type testEnv struct {
	s    *sim.Sim
	host int
	mgrs []*fakeMgr // indexed by node; host has no manager

	logging     bool
	ts          int64
	sends       int
	forces      int
	abortForces int
	installs    []int
	records     int
	prepared    int
	decided     []bool
	refs        int // Retain/Release balance; must drain to zero
}

func newTestEnv(nodes int, logging bool) *testEnv {
	e := &testEnv{s: sim.New(1), host: nodes, logging: logging}
	for i := 0; i < nodes; i++ {
		e.mgrs = append(e.mgrs, &fakeMgr{prepareOK: true})
	}
	return e
}

func (e *testEnv) Host() int { return e.host }
func (e *testEnv) Send(from, to int, h network.Handler, tag int) {
	e.sends++
	e.s.After(0, func() {
		if h != nil {
			h.HandleMsg(tag)
		}
	})
}
func (e *testEnv) Retain()                     { e.refs++ }
func (e *testEnv) Release()                    { e.refs-- }
func (e *testEnv) Manager(node int) cc.Manager { return e.mgrs[node] }
func (e *testEnv) NextTS() int64               { e.ts++; return e.ts }
func (e *testEnv) Logging() bool               { return e.logging }
func (e *testEnv) ForceLog(k *sim.Cont, abortPath bool) {
	e.countForce(abortPath)
	k.Delay(1)
}
func (e *testEnv) ForceLogAsync(node int, abortPath bool, done func()) {
	e.countForce(abortPath)
	e.s.After(1, done)
}
func (e *testEnv) countForce(abortPath bool) {
	e.forces++
	if abortPath {
		e.abortForces++
	}
}
func (e *testEnv) InstallCommit(c *Cohort) { e.installs = append(e.installs, c.Idx) }
func (e *testEnv) RecordCommit()           { e.records++ }
func (e *testEnv) Prepared()               { e.prepared++ }
func (e *testEnv) Decided(committed bool)  { e.decided = append(e.decided, committed) }

// The fault hooks are no-ops in the fault-free protocol tests.
func (e *testEnv) CohortInDoubt(c *Cohort)                  {}
func (e *testEnv) CohortResolved(c *Cohort, committed bool) {}
func (e *testEnv) Down(node int) bool                       { return false }

// newTxn builds a transaction with one cohort per node; readOnly marks
// which cohorts carry no updates.
func (e *testEnv) newTxn(readOnly ...bool) *Txn {
	meta := &cc.TxnMeta{ID: 1, TS: 1, AttemptTS: 1}
	t := &Txn{}
	t.Reset(meta, new(sim.Mailbox))
	for i := range e.mgrs {
		c := &Cohort{Meta: &cc.CohortMeta{Txn: meta, Node: i}}
		t.Attach(c)
		c.ReadOnly = i < len(readOnly) && readOnly[i]
	}
	return t
}

// coordinator is a simulated coordinator process driving a protocol the
// way the transaction manager does: Commit (unless abortOnly) and, when
// that fails, Abort across the first loaded cohorts, each called again
// whenever it returned Waiting and the process resumes.
type coordinator struct {
	k         sim.Cont
	t         *testing.T
	proto     *Protocol
	env       *testEnv
	txn       *Txn
	loaded    int
	aborting  bool
	committed bool
	done      bool
}

func startCoordinator(t *testing.T, k Kind, env *testEnv, txn *Txn, abortOnly bool, loaded int) *coordinator {
	t.Helper()
	proto, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	c := &coordinator{t: t, proto: proto, env: env, txn: txn, loaded: loaded}
	if abortOnly {
		c.abort()
	}
	c.k.Init(env.s, c.step)
	c.k.Resume()
	return c
}

func (c *coordinator) step() {
	if !c.aborting {
		switch c.proto.Commit(&c.k, c.env, c.txn) {
		case Waiting:
			return
		case Committed:
			c.committed, c.done = true, true
			return
		}
		c.abort()
	}
	if c.proto.Abort(&c.k, c.env, c.txn, c.loaded) == Aborted {
		c.done = true
	}
}

func (c *coordinator) abort() {
	c.txn.Meta.AbortRequested = true
	c.aborting = true
}

// finish runs the simulation to the end and checks the coordinator ran to
// completion and every attempt reference drained.
func (c *coordinator) finish() {
	c.t.Helper()
	c.env.s.Run(1000)
	if !c.done {
		c.t.Error("coordinator still waiting after the run drained")
	}
	if c.env.refs != 0 {
		c.t.Errorf("attempt references leaked: Retain/Release balance = %d after the run drained", c.env.refs)
	}
}

// runCommit drives Protocol.Commit (and, on failure, Abort — mirroring the
// transaction manager) inside a simulated coordinator process.
func runCommit(t *testing.T, k Kind, env *testEnv, txn *Txn) bool {
	t.Helper()
	c := startCoordinator(t, k, env, txn, false, len(txn.Cohorts))
	c.finish()
	return c.committed
}

// runAbort drives only the abort path for a fully loaded transaction.
func runAbort(t *testing.T, k Kind, env *testEnv, txn *Txn) {
	t.Helper()
	startCoordinator(t, k, env, txn, true, len(txn.Cohorts)).finish()
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("3PC"); err == nil {
		t.Error("ParseKind accepted an unknown protocol")
	}
	if Kinds()[0] != CentralizedTwoPC {
		t.Error("the default protocol must lead the Kinds list")
	}
	if Kind(0) != CentralizedTwoPC {
		t.Error("the zero Kind must be the centralized default (golden-config compatibility)")
	}
	if _, err := New(Kind(42)); err == nil {
		t.Error("New accepted an unknown kind")
	}
}

// TestCentralizedCommitCosts pins the centralized protocol's per-commit
// costs for an N-cohort update transaction with logging: 4N messages after
// the work phase (prepare, vote, commit, ack) and N+1 forces (one prepare
// record per cohort plus the coordinator's commit record).
func TestCentralizedCommitCosts(t *testing.T) {
	env := newTestEnv(3, true)
	txn := env.newTxn()
	if !runCommit(t, CentralizedTwoPC, env, txn) {
		t.Fatal("uncontested commit failed")
	}
	if env.sends != 4*3 {
		t.Errorf("sends = %d, want 12", env.sends)
	}
	if env.forces != 3+1 || env.abortForces != 0 {
		t.Errorf("forces = %d (%d abort), want 4 (0 abort)", env.forces, env.abortForces)
	}
	if env.prepared != 1 || len(env.decided) != 1 || !env.decided[0] || env.records != 1 {
		t.Errorf("observations: prepared=%d decided=%v records=%d", env.prepared, env.decided, env.records)
	}
	if len(env.installs) != 3 {
		t.Errorf("installs = %v, want all three cohorts", env.installs)
	}
	for i, m := range env.mgrs {
		if m.prepares != 1 || m.commits != 1 || m.aborts != 0 {
			t.Errorf("node %d: prepares=%d commits=%d aborts=%d", i, m.prepares, m.commits, m.aborts)
		}
	}
	if txn.Meta.State != cc.Committing {
		t.Errorf("state = %v, want Committing", txn.Meta.State)
	}
}

// TestLoggingOffNoForces: with logging unmodeled no protocol forces
// anything, on either path.
func TestLoggingOffNoForces(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(2, false)
		if !runCommit(t, k, env, env.newTxn()) {
			t.Fatalf("%v: commit failed", k)
		}
		env2 := newTestEnv(2, false)
		runAbort(t, k, env2, env2.newTxn())
		if env.forces != 0 || env2.forces != 0 {
			t.Errorf("%v: forces commit=%d abort=%d, want 0", k, env.forces, env2.forces)
		}
	}
}

// TestReadOnlyShortCircuit: under the presumed variants a read-only cohort
// votes READ — it commits locally at prepare time, forces nothing, and
// receives no phase-two message; the update cohort still pays full price.
func TestReadOnlyShortCircuit(t *testing.T) {
	for _, k := range []Kind{PresumedAbort, PresumedCommit} {
		env := newTestEnv(2, true)
		txn := env.newTxn(true, false) // cohort 0 read-only, cohort 1 updates
		if !runCommit(t, k, env, txn) {
			t.Fatalf("%v: commit failed", k)
		}
		ro := env.mgrs[0]
		if ro.prepares != 1 {
			t.Errorf("%v: read-only cohort must still run its local first phase (certification)", k)
		}
		if ro.commits != 1 {
			t.Errorf("%v: read-only cohort not released at vote time", k)
		}
		if got := len(env.installs); got != 1 || env.installs[0] != 1 {
			t.Errorf("%v: installs = %v, want only the update cohort", k, env.installs)
		}
		// Prepare forces: none for the READ voter, one for the update
		// cohort; plus the decision force and, for PC, the collecting
		// record.
		wantForces := 2
		if k == PresumedCommit {
			wantForces = 3
		}
		if env.forces != wantForces {
			t.Errorf("%v: forces = %d, want %d", k, env.forces, wantForces)
		}
		// Messages: 2 prepares + 2 votes + 1 commit, plus the commit ack
		// only under presumed abort.
		wantSends := 5
		if k == PresumedAbort {
			wantSends = 6
		}
		if env.sends != wantSends {
			t.Errorf("%v: sends = %d, want %d", k, env.sends, wantSends)
		}
	}
}

// TestFullyReadOnlyTransaction: when every cohort votes READ the presumed
// protocols have no phase two and presumed abort forces nothing at all
// (presumed commit already paid its collecting record).
func TestFullyReadOnlyTransaction(t *testing.T) {
	for _, k := range []Kind{PresumedAbort, PresumedCommit} {
		env := newTestEnv(2, true)
		txn := env.newTxn(true, true)
		if !runCommit(t, k, env, txn) {
			t.Fatalf("%v: commit failed", k)
		}
		if env.sends != 4 { // 2 prepares + 2 READ votes, nothing after
			t.Errorf("%v: sends = %d, want 4", k, env.sends)
		}
		wantForces := 0
		if k == PresumedCommit {
			wantForces = 1 // the collecting record
		}
		if env.forces != wantForces {
			t.Errorf("%v: forces = %d, want %d", k, env.forces, wantForces)
		}
		for i, m := range env.mgrs {
			if m.commits != 1 {
				t.Errorf("%v: node %d never released", k, i)
			}
		}
		if len(env.installs) != 0 {
			t.Errorf("%v: installs = %v for a read-only transaction", k, env.installs)
		}
	}
}

// TestDeferredSuppressesShortCircuit: when any cohort still has write
// permissions to acquire in the prepare phase, the transaction's lock
// point has not passed, so no cohort may release early — the READ vote is
// suppressed for the whole transaction.
func TestDeferredSuppressesShortCircuit(t *testing.T) {
	env := newTestEnv(2, false)
	txn := env.newTxn(true, false)
	txn.Cohorts[1].Deferred = []db.PageID{{File: 1, Page: 1}}
	if !runCommit(t, PresumedAbort, env, txn) {
		t.Fatal("commit failed")
	}
	if env.mgrs[0].commits != 1 {
		t.Fatal("read-only cohort never committed")
	}
	// The read-only cohort must have been committed by a phase-two
	// message, not at vote time: both cohorts get commit messages and both
	// acknowledge (presumed abort acks commits), after 2 prepares + 2
	// votes.
	if env.sends != 8 {
		t.Errorf("sends = %d, want 8 (no cohort short-circuited)", env.sends)
	}
}

// TestVoteNoAborts: a no vote fails the commit and the abort path cleans
// up every cohort exactly once.
func TestVoteNoAborts(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(3, true)
		env.mgrs[1].prepareOK = false
		txn := env.newTxn()
		if runCommit(t, k, env, txn) {
			t.Fatalf("%v: committed despite a no vote", k)
		}
		for i, m := range env.mgrs {
			if m.aborts != 1 {
				t.Errorf("%v: node %d aborts = %d, want 1", k, i, m.aborts)
			}
			if m.commits != 0 {
				t.Errorf("%v: node %d committed during a failed attempt", k, i)
			}
		}
		if txn.Meta.State != cc.Finished {
			t.Errorf("%v: state = %v, want Finished", k, txn.Meta.State)
		}
		if env.records != 0 || len(env.installs) != 0 {
			t.Errorf("%v: auditor or installs reached on the abort path", k)
		}
	}
}

// TestAbortSignalDuringVotes: an abort notice that arrives while votes are
// being collected fails the prepare phase immediately.
func TestAbortSignalDuringVotes(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(2, false)
		txn := env.newTxn()
		txn.Mail.Send(testAbortSignal{})
		if runCommit(t, k, env, txn) {
			t.Fatalf("%v: committed past an abort signal", k)
		}
	}
}

type testAbortSignal struct{}

func (testAbortSignal) CommitAbortSignal() {}

// TestAbortRacedBehindLastVote: an abort requested after the votes are in
// but before the decision (e.g. while the commit record is being forced)
// must win — the attempt aborts.
func TestAbortRacedBehindLastVote(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(2, true)
		txn := env.newTxn()
		// The last cohort's prepare sneaks the abort request in: it is
		// observed only after vote collection, at the pre-decision checks.
		env.mgrs[1].onPrepare = func() { txn.Meta.AbortRequested = true }
		if runCommit(t, k, env, txn) {
			t.Fatalf("%v: committed despite a pre-decision abort request", k)
		}
		if txn.Meta.State != cc.Finished {
			t.Errorf("%v: state = %v, want Finished", k, txn.Meta.State)
		}
	}
}

// TestAbortPathCosts pins the abort fan-out per variant for N loaded
// cohorts with logging: centralized sends 2N (abort + ack) and forces
// nothing; presumed abort sends N and forces nothing; presumed commit
// sends 2N and forces N abort records, all attributed to the abort path.
func TestAbortPathCosts(t *testing.T) {
	const n = 3
	cases := []struct {
		kind        Kind
		sends       int
		abortForces int
	}{
		{CentralizedTwoPC, 2 * n, 0},
		{PresumedAbort, n, 0},
		{PresumedCommit, 2 * n, n},
	}
	for _, tc := range cases {
		env := newTestEnv(n, true)
		txn := env.newTxn()
		runAbort(t, tc.kind, env, txn)
		if env.sends != tc.sends {
			t.Errorf("%v: sends = %d, want %d", tc.kind, env.sends, tc.sends)
		}
		if env.forces != tc.abortForces || env.abortForces != tc.abortForces {
			t.Errorf("%v: forces = %d (%d abort), want %d", tc.kind, env.forces, env.abortForces, tc.abortForces)
		}
		for i, m := range env.mgrs {
			if m.aborts != 1 {
				t.Errorf("%v: node %d aborts = %d, want 1", tc.kind, i, m.aborts)
			}
		}
		if txn.Meta.State != cc.Finished {
			t.Errorf("%v: state = %v, want Finished", tc.kind, txn.Meta.State)
		}
		if len(env.decided) != 1 || env.decided[0] {
			t.Errorf("%v: decided = %v, want one abort decision", tc.kind, env.decided)
		}
	}
}

// TestPartialLoadAbort: aborting with only some cohorts loaded must fan
// out to exactly the loaded prefix.
func TestPartialLoadAbort(t *testing.T) {
	env := newTestEnv(3, false)
	txn := env.newTxn()
	startCoordinator(t, CentralizedTwoPC, env, txn, true, 2).finish()
	if env.mgrs[0].aborts != 1 || env.mgrs[1].aborts != 1 || env.mgrs[2].aborts != 0 {
		t.Errorf("abort fan-out hit the wrong cohorts: %d/%d/%d",
			env.mgrs[0].aborts, env.mgrs[1].aborts, env.mgrs[2].aborts)
	}
	if env.sends != 4 {
		t.Errorf("sends = %d, want 4 (two aborts + two acks)", env.sends)
	}
}
