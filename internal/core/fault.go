package core

import (
	"ddbm/internal/cc"
	"ddbm/internal/fault"
	"ddbm/internal/obs"
	"ddbm/internal/recovery"
	"ddbm/internal/sim"
)

// faultState wires the fault injector (internal/fault) and the recovery
// model (internal/recovery) into the machine. It exists only when
// Config.Faults.Enabled; the nil state keeps every fault-free fast path
// and bit-identical runs.
//
// The crash story, end to end:
//
//   - Crash instant (CrashNode): the injector has marked the node down, so
//     every message touching it already drops. The node's CPU and disks
//     wipe their queues, every live attempt's cohort at the node is marked
//     dead (releasing coordinators stuck waiting for abort acks via
//     synthetic acks), and the node's cohort registry is swept: in-doubt
//     cohorts become residents — their locks survive, their attempt state
//     is pinned — while everything else is stopped and its locks released.
//   - Detection (DetectMs later): the coordinator's timeout/termination
//     protocol aborts every live attempt that touches the dead node.
//   - Repair (MTTRMs after the crash): the node accepts messages again and
//     its recovery process runs — replay the forced log as pure delay,
//     resolve each resident per the protocol's rule (2PC inquires at the
//     coordinator; presumed abort/commit resolve locally), then rejoin,
//     which restarts the injector's failure clock for the node.
//
// A host crash is modeled as instantaneous failover: every live attempt
// aborts with the coordinator-crash cause and new transactions hold until
// the host recovers, but the host stays up for messaging (the failover
// host answers inquiries), so no cohort state is ever lost with it.
type faultState struct {
	m   *Machine
	inj *fault.Injector
	wal *recovery.WAL
	// reg is the coordinator-side decision registry that 2PC recovery
	// inquiries consult; nil under the presumed protocols, which resolve
	// residents locally.
	reg *recovery.DecisionRegistry
	res recovery.Resolution

	// nodeRuns registers, per node, every cohort between load delivery
	// and resolution — the population a crash sweep must visit. Slots are
	// swap-removed (cohortRun.regIdx tracks position), so registration
	// and removal are O(1) and allocation-free in steady state.
	nodeRuns [][]*cohortRun
	// liveAttempts registers every attempt between acquire and recycle,
	// for the detection sweep and crash-instant dead-marking.
	liveAttempts []*attemptState
	// hostWaiters holds the terminals waiting out a host failover.
	hostWaiters []*sim.Cont

	detectFns []func()       // pre-bound per-node detection sweeps
	recs      []nodeRecovery // per-node recovery processes
	downSince []sim.Time     // crash instant per node, for the down trace span

	// Accounting for the Result fields (see metrics.go). In-doubt and
	// blocked-in-doubt totals are windowed to the measurement interval;
	// recovery time accumulates over the whole run like LogForces.
	inDoubtMs        float64
	inDoubtWindows   int64
	blockedInDoubtMs float64
	recoveryMs       float64
}

func newFaultState(m *Machine) *faultState {
	nodes := m.cfg.NumProcNodes
	f := &faultState{
		m:         m,
		inj:       fault.New(m.sim, m.cfg.Faults, nodes),
		wal:       recovery.NewWAL(nodes),
		res:       recovery.ResolutionFor(m.cfg.CommitProtocol),
		nodeRuns:  make([][]*cohortRun, nodes),
		downSince: make([]sim.Time, nodes),
	}
	if f.res == recovery.Inquire {
		f.reg = recovery.NewDecisionRegistry()
	}
	f.recs = make([]nodeRecovery, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		f.detectFns = append(f.detectFns, func() { f.detect(i) })
		r := &f.recs[i]
		r.f, r.node = f, i
		r.k.Init(m.sim, r.step)
	}
	f.inj.SetTarget(f)
	m.net.SetFaultModel(f.inj)
	for _, mgr := range m.mgrs {
		// The lock-based managers attribute lock waits to in-doubt
		// holders so the blocked-in-doubt metric can be collected.
		if g, ok := mgr.(interface{ LockTable() *cc.LockTable }); ok {
			g.LockTable().TrackInDoubt = true
		}
	}
	return f
}

// attemptLive and attemptGone maintain the live-attempt registry
// (swap-removal keyed by attemptState.liveIdx). attemptGone also retires
// the attempt's decision-registry entry: residents pin their attempt, so
// an entry is never dropped while an inquiry can still need it.
//
//ddbmlint:hotpath attempt registration on every acquire/recycle
func (f *faultState) attemptLive(a *attemptState) {
	a.liveIdx = len(f.liveAttempts)
	f.liveAttempts = append(f.liveAttempts, a) //ddbmlint:allow hotpath-alloc registry growth chases the concurrent-attempt high-water mark
}

//ddbmlint:hotpath attempt registration on every acquire/recycle
func (f *faultState) attemptGone(a *attemptState) {
	last := len(f.liveAttempts) - 1
	i := a.liveIdx
	f.liveAttempts[i] = f.liveAttempts[last]
	f.liveAttempts[i].liveIdx = i
	f.liveAttempts[last] = nil
	f.liveAttempts = f.liveAttempts[:last]
	if f.reg != nil {
		f.reg.Forget(a.meta.AttemptTS)
	}
}

// register adds a cohort to its node's crash registry at load delivery.
//
//ddbmlint:hotpath cohort registration on every load
func (f *faultState) register(c *cohortRun) {
	n := c.meta.Node
	c.phase = phaseLoaded
	c.regIdx = len(f.nodeRuns[n])
	f.nodeRuns[n] = append(f.nodeRuns[n], c) //ddbmlint:allow hotpath-alloc registry growth chases the per-node cohort high-water mark
}

// deregister swap-removes a cohort from its node's registry. Safe to call
// for cohorts that never registered (their load was dropped at a down
// node): phaseIdle is a no-op.
//
//ddbmlint:hotpath cohort removal on every resolution
func (f *faultState) deregister(c *cohortRun) {
	if c.phase == phaseIdle || c.phase == phaseGone {
		return
	}
	n := c.meta.Node
	runs := f.nodeRuns[n]
	last := len(runs) - 1
	i := c.regIdx
	runs[i] = runs[last]
	runs[i].regIdx = i
	runs[last] = nil
	f.nodeRuns[n] = runs[:last]
	c.phase = phaseGone
}

// openInDoubt starts a cohort's in-doubt window at vote time: the yes-vote
// (and its forced prepare record, counted in the simulated WAL) is about
// to leave the node, and until the decision arrives a crash strands the
// cohort's locks.
//
//ddbmlint:hotpath vote-time hook on every non-read-only yes vote
func (f *faultState) openInDoubt(c *cohortRun) {
	c.meta.InDoubt = true
	c.inDoubtAt = f.m.sim.Now()
	f.wal.Append(c.meta.Node)
}

// resolveRun closes a cohort's in-doubt window (when one is open), retires
// its WAL record, and removes it from the crash registry.
//
//ddbmlint:hotpath resolution hook on every cohort outcome
func (f *faultState) resolveRun(c *cohortRun) {
	if c.meta.InDoubt {
		c.meta.InDoubt = false
		f.wal.Resolve(c.meta.Node)
		if f.m.stats.measuring {
			f.inDoubtMs += float64(f.m.sim.Now() - c.inDoubtAt)
			f.inDoubtWindows++
		}
		f.m.tracer.Complete(obs.KindFault, obs.NameInDoubt, c.meta.Node, c.meta.Txn.ID, c.attempt, c.inDoubtAt)
	}
	f.deregister(c)
}

// noteInDoubtBlock accounts one blocking episode attributed to an
// in-doubt holder (see Machine.onBlocked).
func (f *faultState) noteInDoubtBlock(d sim.Time) {
	if f.m.stats.measuring && d > 0 {
		f.blockedInDoubtMs += float64(d)
	}
}

// noteDecision records the attempt's outcome for 2PC recovery inquiries,
// but only once a resident exists to ask about: the registry stays
// bounded by the number of stranded cohorts instead of every in-flight
// attempt.
//
//ddbmlint:hotpath decision hook on every commit/abort decision
func (f *faultState) noteDecision(runs []*cohortRun, committed bool) {
	if f.reg == nil {
		return
	}
	for _, c := range runs {
		if c.phase == phaseResident {
			f.reg.Record(c.meta.Txn.AttemptTS, committed)
			return
		}
	}
}

// markCrashAbort stamps an attempt aborted because a cohort node is known
// dead (the coordinator's fail-fast check before loading).
func (f *faultState) markCrashAbort(meta *cc.TxnMeta) {
	meta.AbortRequested = true
	if meta.AbortReason == "" {
		meta.AbortReason = "node crash"
	}
	meta.NoteCause(f.m.hostID, cc.CauseNodeCrash)
}

// anyPlanNodeDown reports whether any of the attempt's cohort nodes is
// currently crashed.
func (f *faultState) anyPlanNodeDown(a *attemptState) bool {
	for _, c := range a.runs {
		if f.inj.Down(c.meta.Node) {
			return true
		}
	}
	return false
}

// CrashNode implements fault.Target: the crash-stop of one processing
// node, run at the crash instant with the node already marked down.
func (f *faultState) CrashNode(n int) {
	m := f.m
	f.downSince[n] = m.sim.Now()
	m.tracer.Instant(obs.NameCrash, n, 0, 0, "")
	m.cpus[n].Crash()
	m.disks[n].Crash()
	// Dead-mark every live attempt's cohort at this node first: a
	// coordinator waiting on abort acknowledgements from the node would
	// otherwise wait forever (MarkDead delivers a synthetic ack exactly
	// when a real one can no longer arrive). Idempotent with the
	// registry sweep below.
	for _, a := range f.liveAttempts {
		for _, c := range a.runs {
			if c.meta.Node == n {
				c.proto.MarkDead()
			}
		}
	}
	// Sweep the node's cohort registry. Removal swap-fills from the
	// tail, so iterate high-to-low: each original entry is visited
	// exactly once whether it stays (resident) or goes.
	for i := len(f.nodeRuns[n]) - 1; i >= 0; i-- {
		f.sweepRun(f.nodeRuns[n][i])
	}
	m.sim.After(m.cfg.Faults.DetectMs, f.detectFns[n])
}

// sweepRun handles one registered cohort of a crashing node. In-doubt
// cohorts become residents: their locks survive (the lock manager is not
// told anything), their attempt state is pinned until recovery resolves
// them, and — under 2PC — any already-made decision is recorded for the
// restart inquiry. Everything else loses its state: a pending startup job
// died with the CPU queue, a running process is stopped (its pending
// resumption canceled; whatever it waited on was wiped with the node),
// and in every case the cohort's locks and queued requests are released.
func (f *faultState) sweepRun(c *cohortRun) {
	m := f.m
	if c.meta.InDoubt {
		c.a.retain() // resident pin, released when recovery resolves the cohort
		c.phase = phaseResident
		if f.reg != nil {
			if c.meta.Txn.AbortRequested {
				f.reg.Record(c.meta.Txn.AttemptTS, false)
			} else if c.meta.Txn.State >= cc.Committing {
				f.reg.Record(c.meta.Txn.AttemptTS, true)
			}
		}
		return
	}
	switch c.phase {
	case phaseLoaded:
		// The startup job was wiped with the CPU queue: the cohort never
		// starts, so the load reference dies here.
		c.a.release()
	case phaseRunning:
		c.k.Cancel()
		if m.activeCohorts != nil {
			m.activeCohorts[c.meta.Node]--
		}
		c.a.release()
	}
	c.meta.CrashReset()
	m.mgrs[c.meta.Node].Abort(&c.meta)
	f.deregister(c)
}

// detect is the coordinator-side failure detector for one node, running
// DetectMs after its crash: every live attempt touching the dead node is
// aborted (2PC's termination protocol for dead participants). The crash
// notice is sent unconditionally — marking the abort is not enough, since
// a coordinator parked on mail from the dead node has no other way to
// learn anything (the cohort that would normally wake it died with the
// node). A stale notice is harmless: the ack wait ignores foreign
// messages and the mailbox resets with the attempt.
func (f *faultState) detect(n int) {
	m := f.m
	for i := len(f.liveAttempts) - 1; i >= 0; i-- {
		a := f.liveAttempts[i]
		if !touchesNode(a, n) {
			continue
		}
		a.meta.RequestAbort(m.hostID, "node crash", cc.CauseNodeCrash)
		a.sendCrashNotice()
	}
}

// touchesNode reports whether the attempt lost a cohort to this crash:
// any run at the node that the crash-instant scan marked dead. The mark is
// the coordinator-side witness — the node-side registry phase is useless
// here because the sweep itself retires entries (phaseGone) while the
// coordinator is still waiting on them. Dead marks from this crash cover
// every run the attempt had at the node at the crash instant, including
// never-started cohorts whose load died in flight; attempts that planned
// the node only after the crash never sent anything (the fail-fast load
// checks) and carry no mark.
func touchesNode(a *attemptState, n int) bool {
	for _, c := range a.runs {
		if c.meta.Node == n && c.proto.Dead() {
			return true
		}
	}
	return false
}

// RecoverNode implements fault.Target, run at the repair instant with the
// node already accepting messages again. The recovery process replays the
// node's forced log as pure delay (the simulated WAL knows how many live
// prepare records the crash stranded; no disk resources and no randomness
// are touched, so recovery perturbs neither stream), resolves each
// resident per the protocol's rule, and only then rejoins the machine.
func (f *faultState) RecoverNode(n int) {
	m := f.m
	r := &f.recs[n]
	r.repairAt = m.sim.Now()
	r.replayed = false
	m.tracer.Complete(obs.KindFault, obs.NameDown, n, 0, 0, f.downSince[n])
	r.k.Resume()
}

// nodeRecovery is one node's recovery process, a state machine over k:
// replay the log, then resolve residents one at a time — waiting out
// cur's 2PC inquiry round-trip when there is one — then rejoin. A node's
// next crash is scheduled only once it rejoins, so one record per node
// serves every recovery.
type nodeRecovery struct {
	k        sim.Cont
	f        *faultState
	node     int
	repairAt sim.Time
	replayed bool
	cur      *cohortRun
}

// step runs the recovery process from its last waiting point.
func (r *nodeRecovery) step() {
	f, m, n := r.f, r.f.m, r.node
	if !r.replayed {
		r.replayed = true
		r.k.Delay(recovery.ReplayMs(f.wal.LiveCount(n), m.cfg.MinDiskMs, m.cfg.MinDiskMs))
		return
	}
	if c := r.cur; c != nil {
		r.cur = nil
		f.resolveResident(c, c.inqCommit)
	}
	for {
		c := f.nextResident(n)
		if c == nil {
			break
		}
		switch f.res {
		case recovery.PresumeCommit:
			f.resolveResident(c, true)
		case recovery.Inquire:
			// 2PC pays a full inquiry round-trip to the coordinator
			// before the cohort can release anything — the
			// recovery-time blocking penalty the presumed variants avoid
			// by resolving locally.
			r.cur = c
			c.recWait = &r.k
			c.a.retain()
			m.net.Send(c.meta.Node, m.hostID, c, tagCohortInquiry)
			return
		default:
			f.resolveResident(c, false)
		}
	}
	f.recoveryMs += float64(m.sim.Now() - r.repairAt)
	m.tracer.Complete(obs.KindFault, obs.NameRecovery, n, 0, 0, r.repairAt)
	f.inj.NodeUp(n)
}

// nextResident finds the node's next unresolved resident (registration
// order). Cohorts loading at the node during recovery are in other phases
// and are skipped.
func (f *faultState) nextResident(n int) *cohortRun {
	for _, c := range f.nodeRuns[n] {
		if c.phase == phaseResident {
			return c
		}
	}
	return nil
}

// resolveResident applies the outcome the protocol's in-doubt resolution
// rule reached for one resident. Presumed commit's local rule installs
// the cohort's updates even when the transaction actually aborted after
// the crash (the documented PC anomaly: the abort record that would
// prevent it was never forced at the dead node).
func (f *faultState) resolveResident(c *cohortRun, committed bool) {
	m := f.m
	if committed {
		m.mgrs[c.meta.Node].Commit(&c.meta)
		c.a.env.InstallCommit(&c.proto)
	} else {
		m.mgrs[c.meta.Node].Abort(&c.meta)
	}
	f.resolveRun(c)
	c.a.release() // the resident pin from the crash sweep
}

// CrashHost implements fault.Target: coordinator failover. Every live
// attempt aborts with the coordinator-crash cause (the failover host has
// no volatile state for them); terminals hold new attempts until
// recovery. No cohort state is lost — the host stays up for messaging.
func (f *faultState) CrashHost() {
	m := f.m
	m.tracer.Instant(obs.NameHostCrash, m.hostID, 0, 0, "")
	for i := len(f.liveAttempts) - 1; i >= 0; i-- {
		a := f.liveAttempts[i]
		a.meta.RequestAbort(m.hostID, "coordinator crash", cc.CauseCoordinatorCrash)
		a.sendCrashNotice()
	}
}

// RecoverHost implements fault.Target: release the held terminals.
func (f *faultState) RecoverHost() {
	ws := f.hostWaiters
	f.hostWaiters = f.hostWaiters[:0]
	for _, k := range ws {
		k.Resume()
	}
}
