package core

import (
	"ddbm/internal/audit"
	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/db"
	"ddbm/internal/obs"
	"ddbm/internal/sim"
	"ddbm/internal/workload"
)

// Coordinator mailbox messages for the work phase. Every message a cohort
// node sends to the coordinator travels through the network with full CPU
// costs. The messages are embedded in the free-listed attempt state and
// travel by pointer, so sending one allocates nothing. The commit
// protocol's own messages (votes, acks) are defined in internal/commit,
// and so is the abort-demanding message, commit.AbortSignal, which the
// protocol's vote collection also reads: a cohort's self-abort carries the
// cohort's index, an attempt-level abort notice -1.
type msgCohortDone struct{ idx int }

// Message tags for the typed network envelopes of the work phase. Tag
// namespaces are per-handler: cohortRun handles the cohort tags,
// attemptState handles the notice tags.
const (
	tagCohortLoad      = iota // host → node: pay startup CPU, start the cohort process
	tagCohortDone             // node → host: deliver &c.doneMsg to the coordinator
	tagCohortSelfAbort        // node → host: deliver &c.selfAbortMsg to the coordinator
	tagAbortNotice            // deliver &a.abortNotice to the coordinator
	tagCohortInquiry          // node → host: recovery asks the coordinator for the outcome
	tagCohortDecision         // host → node: the coordinator's answer to an inquiry
)

// Cohort life-cycle phases tracked by the fault layer (cohortRun.phase;
// maintained only while fault injection is on). A crash sweep uses the
// phase to decide what a cohort left behind: a pending startup job
// (loaded), a live process to stop (running), released resources
// (exited), or — when in doubt — locks that must survive until recovery
// resolves them (resident).
const (
	phaseIdle uint8 = iota
	phaseLoaded
	phaseRunning
	phaseExited
	phaseResident
	phaseGone
)

// attemptState is the complete per-attempt transaction state: the shared
// metadata, the coordinator's mailbox, the protocol-layer Txn and Env, and
// the cohort runs. Attempt states are free-listed on the Machine and
// recycled by quiescence: every in-flight reference to the attempt — a
// message envelope, a log-force continuation, a running cohort process —
// holds one count, and the state returns to the pool only when the count
// drains to zero, so stragglers (late votes after an early abort return,
// phase-two deliveries after Commit returns, cohorts still winding down
// after an abort) never touch recycled memory.
type attemptState struct {
	m    *Machine
	meta cc.TxnMeta
	mail sim.Mailbox
	env  protocolEnv
	txn  commit.Txn
	runs []*cohortRun
	// plan is the attempt's share of the transaction plan; the generator
	// reference is released when the attempt recycles, so the plan's
	// buffers outlive every straggler that reads them (InstallCommit).
	plan *workload.TxnPlan
	refs int
	// bd is the owning terminal's breakdown ledger (nil when accounting
	// is off): the coordinator-timeline account this attempt spends into.
	bd *obs.Ledger

	abortNotice commit.AbortSignal // Idx -1, set once at pool growth
	onAbortFn   func(fromNode int) // a.onAbort, bound once

	// liveIdx is the attempt's slot in the fault layer's live-attempt
	// registry. Maintained only when faults are on.
	liveIdx int
}

// cohortRun is the coordinator's handle on one cohort of one attempt: the
// core-side work-phase state plus the embedded protocol-layer Cohort. Its
// network messages and process steps are pre-bound, so loading and
// running a cohort allocates nothing in steady state.
type cohortRun struct {
	idx     int
	attempt int // attempt number, tagging this cohort's trace spans
	plan    *workload.CohortPlan
	meta    cc.CohortMeta
	proto   commit.Cohort
	// reads records audit observations (only when auditing is enabled).
	reads []audit.ReadObs

	a *attemptState
	m *Machine

	doneMsg      msgCohortDone
	selfAbortMsg commit.AbortSignal

	spawnFn   func()                              // c.spawn, bound once
	blockedFn func(co *cc.CohortMeta, d sim.Time) // c.blocked, bound once

	// The work-phase process: k resumes it at step pc, working on
	// plan.Accesses[next]. firstWrite and out carry the current access's
	// request mode and CC verdict across a wait; spanAt opens the cohort
	// span.
	k          sim.Cont
	pc         uint8
	next       int
	firstWrite bool
	out        cc.Outcome
	spanAt     sim.Time

	// Fault-layer state (zero/idle unless fault injection is on): the
	// life-cycle phase and the cohort's slot in its node's crash
	// registry; inDoubtAt stamps the open in-doubt window; recWait is the
	// recovery process waiting out a 2PC inquiry round-trip and inqCommit
	// carries the answer back.
	phase     uint8
	regIdx    int
	inDoubtAt sim.Time
	recWait   *sim.Cont
	inqCommit bool

	// bd points at bdStore while breakdown accounting is on (nil
	// otherwise): the cohort's mini-ledger, tiling load-send to
	// done-delivery on the cohort's own timeline. The coordinator folds
	// the critical cohort's account into the attempt ledger. diskSvc is
	// the disk Read's service-time slot for the service/queue split.
	bd      *obs.Ledger
	bdStore obs.Ledger
	diskSvc float64
}

// acquireAttempt takes an attempt state from the free list (or grows the
// pool) and resets it for one attempt: fresh metadata with a new attempt
// timestamp, an empty mailbox and cohort list, and one reference held by
// the coordinator.
func (m *Machine) acquireAttempt(id, origTS int64, attemptNo int, plan *workload.TxnPlan, ld *obs.Ledger) *attemptState {
	var a *attemptState
	if k := len(m.attemptFree); k > 0 {
		a = m.attemptFree[k-1]
		m.attemptFree[k-1] = nil
		m.attemptFree = m.attemptFree[:k-1]
	} else {
		a = &attemptState{m: m, abortNotice: commit.AbortSignal{Idx: -1}}
		a.onAbortFn = a.onAbort
		a.env.m = m
		a.env.a = a
	}
	a.meta = cc.TxnMeta{ID: id, TS: origTS, AttemptTS: m.nextTS(), OnAbort: a.onAbortFn}
	a.plan = plan
	a.bd = ld
	m.gen.Retain(plan)
	a.refs = 1
	if m.ft != nil {
		m.ft.attemptLive(a)
	}
	a.env.txn, a.env.attempt, a.env.phaseAt = id, attemptNo, 0
	a.env.prepared = false
	a.env.runs = nil
	a.txn.Reset(&a.meta, &a.mail)
	a.runs = a.runs[:0]
	return a
}

// retain adds one in-flight reference to the attempt.
func (a *attemptState) retain() { a.refs++ }

// release drops one reference; at zero the attempt has quiesced — no
// envelope, continuation or process can reach it — so its mailbox is
// cleared, its plan reference returned to the generator, and the state
// pushed back on the machine's free list.
func (a *attemptState) release() {
	a.refs--
	if a.refs > 0 {
		return
	}
	if a.refs < 0 {
		panic("core: attempt reference count underflow")
	}
	a.mail.Reset()
	a.m.gen.Release(a.plan)
	a.plan = nil
	if a.m.ft != nil {
		a.m.ft.attemptGone(a)
	}
	a.m.attemptFree = append(a.m.attemptFree, a)
}

// onAbort is the pre-bound cc.TxnMeta.OnAbort hook: a manager at fromNode
// demands the attempt abort, and the notice travels to the coordinator
// with full message costs. The notice carries nothing: the reason is
// recorded on the attempt's metadata (TxnMeta.AbortReason).
func (a *attemptState) onAbort(fromNode int) {
	a.retain()
	a.m.net.Send(fromNode, a.m.hostID, a, tagAbortNotice)
}

// HandleMsg delivers the attempt's abort notice into the coordinator's
// mailbox.
func (a *attemptState) HandleMsg(int) {
	a.mail.Send(&a.abortNotice)
	a.release()
}

// MsgDropped releases the reference an attempt-level notice held when the
// fault layer discards it (its sender node crashed mid-flight); the
// coordinator learns of the crash from failure detection instead.
func (a *attemptState) MsgDropped(int) { a.release() }

// sendCrashNotice wakes a coordinator whose attempt can no longer be
// aborted through RequestAbort (the manager-side abort was already spent
// or refused) but which may be parked waiting on a dead node: the notice
// is a host-local self-send, exempt from fault handling.
func (a *attemptState) sendCrashNotice() {
	a.retain()
	a.m.net.Send(a.m.hostID, a.m.hostID, a, tagAbortNotice)
}

// addCohort appends one cohort run to the attempt, reusing the pooled
// cohortRun (and its embedded protocol Cohort) at that position.
func (a *attemptState) addCohort(cp *workload.CohortPlan, attemptNo int) *cohortRun {
	n := len(a.runs)
	if n < cap(a.runs) {
		a.runs = a.runs[:n+1]
		if a.runs[n] == nil {
			a.runs[n] = newCohortRun(a)
		}
	} else {
		a.runs = append(a.runs, newCohortRun(a))
	}
	c := a.runs[n]
	c.idx, c.attempt, c.plan = n, attemptNo, cp
	c.doneMsg = msgCohortDone{idx: n}
	c.selfAbortMsg = commit.AbortSignal{Idx: n}
	c.reads = c.reads[:0]
	c.bd = nil
	if a.bd != nil {
		c.bd = &c.bdStore
	}
	c.phase, c.regIdx = phaseIdle, 0
	c.inDoubtAt, c.recWait, c.inqCommit = 0, nil, false
	c.meta = cc.CohortMeta{Txn: &a.meta, K: &c.k, Node: cp.Node, OnBlocked: c.blockedFn}
	c.proto.Meta = &c.meta
	a.txn.Attach(&c.proto)
	c.proto.ReadOnly = cp.NumWrites() == 0
	a.m.appendDeferred(&c.proto.Deferred, cp)
	return c
}

// newCohortRun makes a pooled cohort run with its entry points bound.
// Under the deferred-lock variants its Deferred buffer is sized up front
// (Machine.deferredCap), so appendDeferred never regrows it on the
// transaction path.
func newCohortRun(a *attemptState) *cohortRun {
	c := &cohortRun{a: a, m: a.m}
	c.spawnFn = c.spawn
	c.blockedFn = c.blocked
	c.k.Init(a.m.sim, c.step)
	if n := a.m.deferredCap; n > 0 {
		c.proto.Deferred = make([]db.PageID, 0, n)
	}
	return c
}

// serializationStamp is the stamp the algorithm promises equivalence to:
// the attempt timestamp for BTO, the certification timestamp for OPT, and
// the commit-decision order for the strict locking algorithms (whose
// prepare phase may block under deferred write locks, reordering decisions
// relative to CommitTS).
func (m *Machine) serializationStamp(meta *cc.TxnMeta) int64 {
	switch m.cfg.Algorithm {
	case cc.BTO:
		return meta.AttemptTS
	case cc.OPT:
		return meta.CommitTS
	default:
		return meta.DecisionTS
	}
}

// terminal is one terminal and the coordinator process it runs (paper
// §3.2, §3.3): think, submit a transaction, drive it to a successful
// commit — rerunning after each abort with a delay of one average
// response time ([Agra87a]) — and think again. The coordinator runs at
// the host node. The process is a state machine over k: pc is the step
// it resumes at, and the remaining fields carry the transaction and
// attempt across its waits. The transaction plan is acquired from the
// generator's free list and released when the transaction commits (the
// attempts' own references keep it alive past any stragglers).
type terminal struct {
	m        *Machine
	k        sim.Cont
	pc       uint8
	rel      int            // the relation this terminal's transactions read
	class    workload.Class // workload class of its transactions
	classIdx int            // its breakdown histogram row
	ld       *obs.Ledger    // its breakdown ledger; nil when accounting is off

	// The transaction in progress.
	plan     *workload.TxnPlan
	txn      int64
	origTS   int64 // original startup timestamp, kept across restarts
	origin   sim.Time
	restarts int

	// The attempt in progress: its state, the attempt span's start, the
	// cohorts loaded so far (exactly the ones an abort must reach), the
	// done reports still awaited, and the cohort whose message ended the
	// last wait (see awaitDone).
	a          *attemptState
	attemptAt  sim.Time
	sequential bool
	loaded     int
	await      int
	crit       int
}

// Coordinator steps (terminal.pc): where the process resumes after each
// wait.
const (
	termThink   uint8 = iota // process start and after each commit: think
	termSubmit               // think time over: submit a transaction
	termHold                 // start an attempt once the host is up
	termStarted              // coordinator startup CPU paid: load cohorts
	termLoad                 // sequential: load the next cohort
	termWork                 // collect the cohorts' work-phase reports
	termPrepare              // work phase over: enter the commit protocol
	termCommit               // in the commit protocol
	termAbort                // in the commit protocol's abort path
	termRestart              // restart delay over
)

// newTerminal binds terminal termID's process; Start schedules its first
// step.
func (m *Machine) newTerminal(t *terminal, termID int) {
	t.m = m
	t.rel = termID % m.cfg.NumRelations
	t.class = m.gen.ClassOfTerminal(termID, m.cfg.NumTerminals)
	t.ld = m.bd.ledger(termID)
	t.classIdx = m.bd.class(termID)
	t.k.Init(m.sim, t.step)
}

// step runs the coordinator from its resume point until it must wait.
func (t *terminal) step() {
	m := t.m
	cfg := &m.cfg
	for {
		switch t.pc {
		case termThink:
			t.pc = termSubmit
			t.k.Delay(sim.Exponential(m.sim.Rand(), cfg.ThinkTimeMs))
			return
		case termSubmit:
			t.plan = m.gen.AcquireClassPlan(m.sim.Rand(), t.rel, t.class)
			t.txn = m.nextTxnID()
			t.origTS = m.nextTS()
			t.origin = m.sim.Now()
			t.restarts = 0
			t.ld.StartAt(t.origin)
			m.stats.txnStarted(t.origin)
			m.tracer.Instant(obs.NameSubmitted, m.hostID, t.txn, 1, "")
			t.pc = termHold
		case termHold:
			if m.ft != nil && m.ft.inj.HostDown() {
				// The coordinator host is mid-failover; RecoverHost
				// resumes the held terminals, and this step checks again.
				m.ft.hostWaiters = append(m.ft.hostWaiters, &t.k)
				return
			}
			attemptNo := t.restarts + 1
			m.tracer.Instant(obs.NameAttempt, m.hostID, t.txn, attemptNo, "")
			t.attemptAt = m.sim.Now()
			t.a = m.acquireAttempt(t.txn, t.origTS, attemptNo, t.plan, t.ld)
			// Coordinator process startup at the host.
			t.pc = termStarted
			if m.cpus[m.hostID].Use(&t.k, cfg.InstPerStartup) {
				return
			}
		case termStarted:
			a := t.a
			a.bd.SpendSplit(m.sim.Now(), cfg.InstPerStartup/m.cpus[m.hostID].Rate(),
				obs.PhaseCPUService, obs.PhaseCPUQueue)
			for i := range t.plan.Cohorts {
				a.addCohort(&t.plan.Cohorts[i], a.env.attempt)
			}
			a.env.runs = a.runs
			t.loaded = 0
			t.sequential = cfg.ExecPattern == Sequential || t.plan.Sequential
			if t.sequential {
				t.pc = termLoad
				continue
			}
			// One down check covers the whole parallel fan-out: no
			// simulated time passes between the loads, so a node up here
			// is up for every send below.
			if m.ft != nil && m.ft.anyPlanNodeDown(a) {
				m.ft.markCrashAbort(&a.meta)
				t.beginAbort()
				continue
			}
			for _, c := range a.runs {
				m.loadCohort(c)
				t.loaded++
			}
			t.await, t.crit = t.loaded, -1
			t.pc = termWork
		case termLoad:
			a := t.a
			if t.loaded == len(a.runs) {
				t.pc = termPrepare
				continue
			}
			c := a.runs[t.loaded]
			if m.ft != nil && m.ft.inj.Down(c.meta.Node) {
				// Fail fast: a cohort's node is known dead, so the attempt
				// aborts instead of loading into the void. Re-checked per
				// load — a node can crash while an earlier cohort runs.
				m.ft.markCrashAbort(&a.meta)
				t.beginAbort()
				continue
			}
			m.loadCohort(c)
			t.loaded++
			t.await, t.crit = 1, -1
			t.pc = termWork
		case termWork:
			ok, waiting := t.awaitDone()
			if waiting {
				return
			}
			t.a.foldWork(t.crit)
			switch {
			case !ok:
				t.beginAbort()
			case t.sequential:
				t.pc = termLoad
			default:
				t.pc = termPrepare
			}
		case termPrepare:
			a := t.a
			if a.meta.AbortRequested {
				t.beginAbort()
				continue
			}
			a.env.phaseAt = m.sim.Now()
			t.pc = termCommit
		case termCommit:
			a := t.a
			switch m.proto.Commit(&t.k, &a.env, &a.txn) {
			case commit.Waiting:
				return
			case commit.Aborted:
				t.beginAbort()
				continue
			}
			// Commit resolution: from the logged decision (Decided
			// advanced the ledger cursor and phaseAt) to the protocol's
			// return — zero for the asynchronous phase-two fan-out.
			// Nil-safe no-ops when disabled.
			a.bd.Spend(m.sim.Now(), obs.PhaseResolve)
			m.tracer.Complete(obs.KindCommitPhase, obs.NameResolve, m.hostID, t.txn, a.env.attempt, a.env.phaseAt)
			t.endAttempt()
			t.committed()
			t.pc = termThink
		case termAbort:
			a := t.a
			if m.proto.Abort(&t.k, &a.env, &a.txn, t.loaded) == commit.Waiting {
				return
			}
			reason := t.abortResolved()
			attemptNo := a.env.attempt
			t.endAttempt()
			m.tracer.Instant(obs.NameAborted, m.hostID, t.txn, attemptNo, reason)
			m.stats.txnAborted()
			t.restarts++
			t.pc = termRestart
			t.k.Delay(m.stats.avgResponse(cfg.InitialRestartDelayMs))
			return
		case termRestart:
			t.ld.Spend(m.sim.Now(), obs.PhaseRestart)
			t.pc = termHold
		}
	}
}

// beginAbort marks the attempt aborted (with a default reason when no
// party recorded one) and enters the commit protocol's abort path across
// the loaded cohorts.
func (t *terminal) beginAbort() {
	a := t.a
	meta := &a.meta
	meta.AbortRequested = true
	if meta.AbortReason == "" {
		meta.AbortReason = "aborted by coordinator"
	}
	// Cause attribution mirrors the reason default: a no-op when any party
	// already recorded a cause (first cause wins).
	meta.NoteCause(t.m.hostID, cc.CauseCoordinator)
	a.env.phaseAt = t.m.sim.Now()
	t.pc = termAbort
}

// abortResolved closes the abort path once the protocol lets the
// coordinator forget the attempt, and returns the abort reason.
func (t *terminal) abortResolved() string {
	m, a := t.m, t.a
	// Abort resolution: from the abort decision (Decided(false) fires at
	// the top of the protocol's abort path, advancing phaseAt) to the
	// protocol's return — the ack-collection wait under the ack-requiring
	// variants. Nil-safe no-ops when untraced/disabled.
	a.bd.Spend(m.sim.Now(), obs.PhaseResolve)
	m.tracer.Complete(obs.KindCommitPhase, obs.NameResolve, m.hostID, t.txn, a.env.attempt, a.env.phaseAt)
	// The cause tally runs here, after the abort protocol resolved: no
	// simulated time passes between this point and the txnAborted tally,
	// so the windowed counters agree exactly.
	m.bd.noteAbort(&a.meta, m.stats.measuring)
	return a.meta.AbortReason
}

// endAttempt drops the coordinator's reference to the finished attempt
// (an attempt with no stragglers recycles here) and records its span.
func (t *terminal) endAttempt() {
	attemptNo := t.a.env.attempt
	t.a.release()
	t.a = nil
	t.m.tracer.Complete(obs.KindTxn, obs.NameAttempt, t.m.hostID, t.txn, attemptNo, t.attemptAt)
}

// committed completes the transaction: response-time statistics, the
// breakdown record, and the plan's return to the generator.
func (t *terminal) committed() {
	m := t.m
	m.tracer.Instant(obs.NameCommitted, m.hostID, t.txn, t.restarts+1, "")
	resp := m.sim.Now() - t.origin
	m.stats.txnCommitted(m.sim.Now(), resp, t.restarts)
	m.bd.noteCommit(t.classIdx, t.ld, m.stats.measuring)
	if m.bdCheck != nil && t.ld != nil {
		m.bdCheck(t.ld, resp)
	}
	m.gen.Release(t.plan)
	t.plan = nil
}

// awaitDone consumes coordinator mail until t.await cohorts report
// work-phase completion; ok turns false as soon as any abort signal
// arrives, and waiting reports that the mail ran out first (k then waits
// on the mailbox). t.crit identifies the cohort whose message ended the
// wait — the last done report (the critical cohort: the mailbox is FIFO
// in delivery order, so the last consumed done is the latest delivered)
// or the self-aborting cohort — or -1 when an attempt-level abort notice
// ended it.
func (t *terminal) awaitDone() (ok, waiting bool) {
	for t.await > 0 {
		msg, got := t.a.mail.Recv(&t.k)
		if !got {
			return false, true
		}
		switch msg := msg.(type) {
		case *msgCohortDone:
			t.await--
			t.crit = msg.idx
		case *commit.AbortSignal:
			t.crit = msg.Idx
			return false, false
		}
	}
	return true, false
}

// foldWork merges the reporting cohort's breakdown mini-ledger into the
// attempt ledger at the coordinator, attributing the wait since the
// cohorts were loaded. The critical cohort's account tiles the interval
// exactly (its last entry is the done-report transit, ending at this
// delivery); a fold with no reporting cohort (crit < 0, an abort notice)
// sweeps the interval into the residue phase.
func (a *attemptState) foldWork(crit int) {
	if a.bd == nil {
		return
	}
	var from *obs.Ledger
	if crit >= 0 {
		from = a.runs[crit].bd
	}
	a.bd.Fold(a.m.sim.Now(), from, obs.PhaseResidue)
}

// loadCohort sends the "load cohort" message; at the destination the
// process-startup CPU cost is paid and the cohort process begins. The
// reference taken here is held until the cohort process ends, so an
// attempt never recycles under a cohort that is still winding down.
func (m *Machine) loadCohort(c *cohortRun) {
	c.a.retain()
	c.bd.StartAt(m.sim.Now())
	m.net.Send(m.hostID, c.meta.Node, c, tagCohortLoad)
}

// HandleMsg dispatches one delivered work-phase envelope for this cohort:
// the load step at its node, or its completion/self-abort report into the
// coordinator's mailbox at the host. Host-bound deliveries release the
// reference their envelope held; the load step passes its reference to the
// cohort process.
func (c *cohortRun) HandleMsg(tag int) {
	switch tag {
	case tagCohortLoad:
		c.bd.Spend(c.m.sim.Now(), obs.PhaseNetTransit)
		if c.m.ft != nil {
			c.m.ft.register(c)
		}
		c.m.cpus[c.meta.Node].UseAsync(c.m.cfg.InstPerStartup, c.spawnFn)
	case tagCohortDone:
		c.bd.Spend(c.m.sim.Now(), obs.PhaseNetTransit)
		c.a.mail.Send(&c.doneMsg)
		c.a.release()
	case tagCohortSelfAbort:
		c.bd.Spend(c.m.sim.Now(), obs.PhaseNetTransit)
		c.a.mail.Send(&c.selfAbortMsg)
		c.a.release()
	case tagCohortInquiry:
		// At the host: a restarted node asks for this in-doubt cohort's
		// outcome; answer from the decision registry (no record ⇒ abort).
		// Answering abort binds the coordinator: no record means the
		// transaction has not reached its commit point (the decision and
		// its registry record land in one synchronous stretch), so a
		// still-undecided coordinator is aborted here rather than left
		// able to commit a transaction whose cohort just rolled back.
		committed := c.m.ft.reg.Lookup(c.meta.Txn.AttemptTS)
		if !committed {
			c.meta.Txn.RequestAbort(c.m.hostID, "node crash", cc.CauseNodeCrash)
		}
		c.inqCommit = committed
		c.a.retain()
		c.m.net.Send(c.m.hostID, c.meta.Node, c, tagCohortDecision)
		c.a.release()
	case tagCohortDecision:
		// Back at the node: resume the waiting recovery process.
		k := c.recWait
		c.recWait = nil
		k.Resume()
		c.a.release()
	}
}

// MsgDropped releases the reference a work-phase envelope held when the
// fault layer discards it at a crashed node. A dropped load means the
// cohort never starts (the coordinator aborts via failure detection); a
// dropped report means its news died with the node.
func (c *cohortRun) MsgDropped(int) { c.a.release() }

// spawn starts the cohort process once the startup CPU cost is paid.
func (c *cohortRun) spawn() {
	c.bd.SpendSplit(c.m.sim.Now(), c.m.cfg.InstPerStartup/c.m.cpus[c.meta.Node].Rate(),
		obs.PhaseCPUService, obs.PhaseCPUQueue)
	c.pc = cohortStart
	c.k.Resume()
	if c.m.ft != nil {
		// The running phase starts here, not at the first step: a crash
		// landing between the two must still find a process to stop.
		c.phase = phaseRunning
	}
}

// Cohort work-phase steps (cohortRun.pc): where the process resumes after
// each wait.
const (
	cohortStart      uint8 = iota // process start
	cohortNext                    // the next access, or the done report
	cohortRemoteCC                // CC-request CPU paid: request remote-copy write permission
	cohortRemoteLock              // remote-copy permission verdict
	cohortCC                      // CC-request CPU paid: request the access
	cohortLock                    // access verdict: read the page
	cohortRead                    // page read: process it
	cohortPage                    // page processed: the write's CC request, if any
	cohortWriteCC                 // CC-request CPU paid: request write permission
	cohortWriteLock               // write permission verdict
	cohortWritten                 // write processing done
)

// step runs the cohort's work phase from its resume point until it must
// wait: for each access, a concurrency control request, a synchronous
// disk read, and page-processing CPU; for updates, a second (write)
// concurrency control request — the update itself is buffered until
// commit. The cohort stops silently if its transaction is already being
// aborted (the abort protocol handles cleanup), and reports conflicts it
// loses to the coordinator. Every exit path releases the reference
// loadCohort took.
func (c *cohortRun) step() {
	m := c.m
	cfg := &m.cfg
	node := c.meta.Node
	for {
		var a *workload.Access
		if c.next < len(c.plan.Accesses) {
			a = &c.plan.Accesses[c.next]
		}
		switch c.pc {
		case cohortStart:
			if m.activeCohorts != nil {
				m.activeCohorts[node]++
			}
			c.spanAt = m.sim.Now()
			c.next = 0
			c.pc = cohortNext
		case cohortNext:
			if a == nil {
				m.cohortDone(c)
				c.a.retain()
				m.net.Send(node, m.hostID, c, tagCohortDone)
				c.a.release()
				return
			}
			if c.meta.Txn.AbortRequested {
				m.cohortDone(c)
				c.a.release()
				return
			}
			if a.Remote {
				// Write to a non-primary copy: a write permission request
				// only (read-one/write-all); the copy is installed at
				// commit. In deferred mode the lock request moves to the
				// prepare phase.
				if cfg.DeferRemoteWriteLocks || cfg.Algorithm == cc.O2PL {
					c.next++
					continue
				}
				if c.use(cfg.InstPerCCReq, cohortRemoteCC) {
					return
				}
				continue
			}
			// For pages the transaction will update, the locking
			// algorithms can claim write permission up front (the update
			// set is known) or read-then-convert (§2.2 literally);
			// timestamp algorithms always see the read first so their
			// read rules apply.
			c.firstWrite = a.Write && !cfg.UpgradeWriteLocks && locksUpFront(cfg.Algorithm)
			if c.use(cfg.InstPerCCReq, cohortCC) {
				return
			}
		case cohortRemoteCC:
			c.spendCPU(cfg.InstPerCCReq)
			if c.access(a, true, cohortRemoteLock) {
				return
			}
		case cohortRemoteLock:
			if c.verdict() == cc.Aborted {
				c.selfAbort()
				return
			}
			c.next++
			c.pc = cohortNext
		case cohortCC:
			c.spendCPU(cfg.InstPerCCReq)
			if c.access(a, c.firstWrite, cohortLock) {
				return
			}
		case cohortLock:
			if c.verdict() == cc.Aborted {
				c.selfAbort()
				return
			}
			if m.rec != nil {
				c.reads = append(c.reads, audit.ReadObs{Page: a.Page, Saw: m.rec.ObserveRead(a.Page, node)})
			}
			c.pc = cohortRead
			m.disks[node].Read(&c.k, &c.diskSvc)
			return
		case cohortRead:
			c.bd.SpendSplit(m.sim.Now(), c.diskSvc, obs.PhaseDiskService, obs.PhaseDiskQueue)
			if c.use(a.Inst, cohortPage) {
				return
			}
		case cohortPage:
			c.spendCPU(a.Inst)
			if !a.Write {
				c.next++
				c.pc = cohortNext
				continue
			}
			if c.meta.Txn.AbortRequested {
				m.cohortDone(c)
				c.a.release()
				return
			}
			if !c.firstWrite && cfg.Algorithm != cc.O2PL {
				if c.use(cfg.InstPerCCReq, cohortWriteCC) {
					return
				}
				continue
			}
			// Processing the page "when writing it" (Table 2); the update
			// itself stays buffered until commit.
			if c.use(a.WriteInst, cohortWritten) {
				return
			}
		case cohortWriteCC:
			c.spendCPU(cfg.InstPerCCReq)
			if c.access(a, true, cohortWriteLock) {
				return
			}
		case cohortWriteLock:
			if c.verdict() == cc.Aborted {
				c.selfAbort()
				return
			}
			if c.use(a.WriteInst, cohortWritten) {
				return
			}
		case cohortWritten:
			c.spendCPU(a.WriteInst)
			c.next++
			c.pc = cohortNext
		}
	}
}

// use submits inst instructions of page-level CPU work and moves the
// process to step next, reporting whether it must wait for the CPU (a
// zero cost continues inline).
func (c *cohortRun) use(inst float64, next uint8) bool {
	c.pc = next
	return c.m.cpus[c.meta.Node].Use(&c.k, inst)
}

// spendCPU accounts the CPU work just finished as service plus queueing.
func (c *cohortRun) spendCPU(inst float64) {
	c.bd.SpendSplit(c.m.sim.Now(), inst/c.m.cpus[c.meta.Node].Rate(), obs.PhaseCPUService, obs.PhaseCPUQueue)
}

// access requests concurrency control permission for the access and moves
// the process to step next, reporting whether it must wait for the
// verdict.
func (c *cohortRun) access(a *workload.Access, write bool, next uint8) bool {
	c.pc = next
	c.out = c.m.mgrs[c.meta.Node].Access(&c.meta, a.Page, write)
	return c.out == cc.Blocked
}

// verdict closes a concurrency control request: its outcome (read from
// the cohort meta, with the episode observed, when the request waited),
// with the time since the request accounted as lock blocking.
func (c *cohortRun) verdict() cc.Outcome {
	out := c.out
	if out == cc.Blocked {
		var d sim.Time
		out, d = c.meta.Verdict()
		c.blocked(&c.meta, d)
	}
	c.bd.Spend(c.m.sim.Now(), obs.PhaseLockBlocked)
	return out
}

// blocked observes one of the cohort's blocking episodes, ending now
// after d: a cc-wait span when tracing, then the machine's tally. It is
// also the cohort meta's OnBlocked hook, for waits in a deferred-write
// acquisition.
func (c *cohortRun) blocked(co *cc.CohortMeta, d sim.Time) {
	if tr := c.m.tracer; tr != nil && d > 0 {
		tr.Complete(obs.KindCCWait, obs.NameCCWait, c.meta.Node, c.meta.Txn.ID, c.attempt, c.m.sim.Now()-d)
	}
	c.m.onBlocked(co, d)
}

// selfAbort ends a work phase whose access concurrency control rejected.
func (c *cohortRun) selfAbort() {
	c.m.reportSelfAbort(c)
	c.m.cohortDone(c)
	c.a.release()
}

// cohortDone closes a cohort's observability state on every work-phase
// exit path. A cohort still running when the simulation ends records no
// span (its coordinator's attempt span never records either).
func (m *Machine) cohortDone(c *cohortRun) {
	if m.activeCohorts != nil {
		m.activeCohorts[c.meta.Node]--
	}
	if m.ft != nil {
		c.phase = phaseExited
	}
	m.tracer.Complete(obs.KindCohort, obs.NameCohort, c.meta.Node, c.meta.Txn.ID, c.attempt, c.spanAt)
}

// locksUpFront reports whether the algorithm can usefully claim write
// permission at first access: only the locking algorithms distinguish the
// request modes before commit. BTO must see the read first (its read rule
// orders the read against pending writes), and OPT/NO_DC grant everything
// anyway, so they always use the read-then-write sequence.
func locksUpFront(k cc.Kind) bool { return k == cc.TwoPL || k == cc.WoundWait }

// reportSelfAbort tells the coordinator this cohort's access was rejected
// by concurrency control. If the attempt is already being aborted the
// coordinator knows, so nothing is sent.
func (m *Machine) reportSelfAbort(c *cohortRun) {
	m.tracer.Instant(obs.NameCCReject, c.meta.Node, c.meta.Txn.ID, c.attempt, "")
	if c.meta.Txn.AbortRequested {
		return
	}
	c.a.retain()
	m.net.Send(c.meta.Node, m.hostID, c, tagCohortSelfAbort)
}
