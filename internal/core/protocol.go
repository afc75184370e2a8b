package core

import (
	"ddbm/internal/audit"
	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/db"
	"ddbm/internal/network"
	"ddbm/internal/obs"
	"ddbm/internal/sim"
	"ddbm/internal/workload"
)

// The coordinator's abort-demanding mailbox messages satisfy
// commit.AbortSignal so the protocol layer's vote collection treats them as
// a failed prepare phase. Pointer receivers: the messages travel by
// pointer out of the free-listed attempt state.
func (*msgSelfAbort) CommitAbortSignal()   {}
func (*msgAbortNotice) CommitAbortSignal() {}

// protocolEnv adapts one transaction attempt's view of the machine to
// commit.Env: it is the narrow facade through which a commit protocol
// drives the network, the per-node managers, the log disks, and the
// timestamp source. It is embedded in the attempt state, reset per
// attempt, and its Retain/Release route the protocol's in-flight
// references into the attempt's quiescence count.
type protocolEnv struct {
	m *Machine
	a *attemptState // owning attempt, set once at pool growth
	// txn and attempt identify the attempt in the life-cycle instants.
	txn     int64
	attempt int
	// runs carries the core-side cohort state (plans, audit reads) in the
	// same order as the protocol-side commit.Txn.Cohorts.
	runs []*cohortRun
	// phaseAt is the running commit-phase boundary for the tracer's
	// prepare/decide/resolve spans: the attempt sets it on entering the
	// protocol, Prepared and Decided advance it. Observation only.
	phaseAt sim.Time
	// prepared records whether Prepared fired this attempt, so Decided can
	// attribute ledger time to the decide phase when it did and to the
	// prepare phase when the protocol decided without a separate vote
	// round (e.g. an abort before all votes arrived). Reset per attempt.
	prepared bool
}

func (e *protocolEnv) Host() int { return e.m.hostID }

//ddbmlint:hotpath protocol message send pinned by TestTxnPathAllocFree
func (e *protocolEnv) Send(from, to int, h network.Handler, tag int) {
	e.m.net.Send(from, to, h, tag)
}

//ddbmlint:hotpath protocol reference counting pinned by TestTxnPathAllocFree
func (e *protocolEnv) Retain() { e.a.retain() }

//ddbmlint:hotpath protocol reference counting pinned by TestTxnPathAllocFree
func (e *protocolEnv) Release() { e.a.release() }

func (e *protocolEnv) Manager(node int) cc.Manager { return e.m.mgrs[node] }
func (e *protocolEnv) NextTS() int64               { return e.m.nextTS() }
func (e *protocolEnv) Logging() bool               { return e.m.cfg.ModelLogging }

// ForceLog forces a log record at the coordinator's node: a synchronous
// priority write on the host's disks, resuming the coordinator at k when
// it completes.
//
//ddbmlint:hotpath coordinator log force pinned by TestTxnPathAllocFree
func (e *protocolEnv) ForceLog(k *sim.Cont, abortPath bool) {
	e.m.countLogForce(abortPath)
	e.m.hostDisks.Write(k)
}

// ForceLogAsync forces a log record at a cohort node's disks, running done
// when the write completes.
//
//ddbmlint:hotpath cohort log force pinned by TestTxnPathAllocFree
func (e *protocolEnv) ForceLogAsync(node int, abortPath bool, done func()) {
	e.m.countLogForce(abortPath)
	e.m.disks[node].WriteAsync(done)
}

// InstallCommit applies a committed cohort's buffered updates at its node:
// audit installs, then one InstPerUpdate CPU burst per updated page to
// initiate the deferred disk write (through the node's pre-bound
// write-back continuation).
//
//ddbmlint:hotpath phase-two update install pinned by TestTxnPathAllocFree
func (e *protocolEnv) InstallCommit(c *commit.Cohort) {
	m := e.m
	run := e.runs[c.Idx]
	node := c.Meta.Node
	if m.rec != nil {
		stamp := m.serializationStamp(c.Meta.Txn)
		for i := range run.plan.Accesses {
			if run.plan.Accesses[i].Write {
				m.rec.Install(run.plan.Accesses[i].Page, node, stamp)
			}
		}
	}
	writes := run.plan.NumWrites()
	wb := m.writeBackFns[node]
	for w := 0; w < writes; w++ {
		m.cpus[node].UseAsync(m.cfg.InstPerUpdate, wb)
	}
}

// RecordCommit registers the committed transaction with the
// serializability auditor (a no-op unless Config.Audit). Deliberately not
// hotpath-annotated: auditing is off in measured runs, and audited runs
// trade per-commit record allocation for the serializability check.
func (e *protocolEnv) RecordCommit() {
	m := e.m
	if m.rec == nil {
		return
	}
	meta := e.runs[0].meta.Txn
	stamp := m.serializationStamp(meta)
	rec := audit.TxnRecord{ID: meta.ID, Stamp: stamp}
	for _, c := range e.runs {
		rec.Reads = append(rec.Reads, c.reads...)
		for i := range c.plan.Accesses {
			if c.plan.Accesses[i].Write {
				rec.Writes = append(rec.Writes, c.plan.Accesses[i].Page)
			}
		}
	}
	m.rec.Commit(rec)
}

// Prepared and Decided surface protocol phase transitions as life-cycle
// events and close the corresponding commit-phase spans ("prepare" runs
// from protocol entry to all-votes-collected, "decide" from there to the
// logged decision). Observation only: no effect on simulated behaviour.
//
//ddbmlint:hotpath prepare-phase hook pinned by TestTxnPathAllocFree
func (e *protocolEnv) Prepared() {
	e.a.bd.Spend(e.m.sim.Now(), obs.PhasePrepare)
	e.prepared = true
	e.m.tracer.Instant(obs.NamePrepared, e.m.hostID, e.txn, e.attempt, "")
	if tr := e.m.tracer; tr != nil {
		tr.Complete(obs.KindCommitPhase, obs.NamePrepare, e.m.hostID, e.txn, e.attempt, e.phaseAt)
		e.phaseAt = e.m.sim.Now()
	}
}

//ddbmlint:hotpath decision hook pinned by TestTxnPathAllocFree
func (e *protocolEnv) Decided(committed bool) {
	ph := obs.PhasePrepare
	if e.prepared {
		ph = obs.PhaseDecide
	}
	e.a.bd.Spend(e.m.sim.Now(), ph)
	detail := "commit"
	if !committed {
		detail = "abort"
	}
	e.m.tracer.Instant(obs.NameDecided, e.m.hostID, e.txn, e.attempt, detail)
	if e.m.ft != nil {
		e.m.ft.noteDecision(e.runs, committed)
	}
	if tr := e.m.tracer; tr != nil {
		tr.Complete(obs.KindCommitPhase, obs.NameDecide, e.m.hostID, e.txn, e.attempt, e.phaseAt)
		e.phaseAt = e.m.sim.Now()
	}
}

// CohortInDoubt opens a cohort's in-doubt window: from here (its yes-vote
// is forced and about to be sent) until it learns the global outcome, a
// crash at its node strands its locks behind the commit protocol. No-op
// without the fault layer.
//
//ddbmlint:hotpath vote-send hook pinned by TestTxnPathAllocFree
func (e *protocolEnv) CohortInDoubt(c *commit.Cohort) {
	if e.m.ft == nil {
		return
	}
	e.m.ft.openInDoubt(e.runs[c.Idx])
}

// CohortResolved closes a cohort's in-doubt window (if one was open) and
// retires its crash-registry entry: the cohort has learned the outcome (or
// was released read-only before any window opened). No-op without the
// fault layer.
//
//ddbmlint:hotpath outcome-learned hook pinned by TestTxnPathAllocFree
func (e *protocolEnv) CohortResolved(c *commit.Cohort, committed bool) {
	if e.m.ft == nil {
		return
	}
	e.m.ft.resolveRun(e.runs[c.Idx])
}

// Down reports whether a cohort's node is currently crashed, so the
// protocol's fan-outs skip dead destinations. Always false without the
// fault layer.
//
//ddbmlint:hotpath fan-out guard pinned by TestTxnPathAllocFree
func (e *protocolEnv) Down(node int) bool {
	return e.m.ft != nil && e.m.ft.inj.Down(node)
}

// countLogForce tallies modeled log forces over the whole run (like
// MessagesSent, not windowed to the measurement interval).
//
//ddbmlint:hotpath log force accounting
func (m *Machine) countLogForce(abortPath bool) {
	m.logForces++
	if abortPath {
		m.abortLogForces++
	}
}

// appendDeferred collects the cohort's write permissions that move to the
// first phase of the commit protocol: every write under O2PL, the
// remote-copy writes under DeferRemoteWriteLocks ([Care89]). The
// destination is the pooled cohort's Deferred buffer, resliced to empty by
// Txn.Attach, so steady-state collection reuses its backing array.
//
//ddbmlint:hotpath deferred-permission collection pinned by TestTxnPathAllocFree
func (m *Machine) appendDeferred(dst *[]db.PageID, cp *workload.CohortPlan) {
	for i := range cp.Accesses {
		a := &cp.Accesses[i]
		if (m.cfg.Algorithm == cc.O2PL && a.Write) ||
			(m.cfg.DeferRemoteWriteLocks && a.Remote) {
			*dst = append(*dst, a.Page) //ddbmlint:allow hotpath-alloc high-water growth; the buffer survives recycling
		}
	}
}
