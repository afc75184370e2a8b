// Package twopl implements distributed two-phase locking (paper §2.2):
// dynamic S/X page locks with read-to-write upgrades, blocking on conflict,
// local deadlock detection whenever a cohort blocks, and a rotating "Snoop"
// process that periodically gathers the waits-for graphs of every node to
// resolve global deadlocks. Deadlocks are broken by aborting the most
// recently started transaction in the cycle.
//
// The Snoop and the deferred-write acquisitions are simulation processes
// written as state machines over a sim.Cont (see package sim).
package twopl

import (
	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/sim"
)

// Algorithm builds 2PL managers and the global Snoop detector.
type Algorithm struct {
	// DetectionIntervalMs is how long each node holds the Snoop role before
	// gathering waits-for information (paper Table 4: 1 second).
	DetectionIntervalMs float64
	// WaitTimeoutMs, when positive, switches deadlock handling to the
	// timeout scheme discussed in the paper's footnote 2 ([Jenq89]): no
	// detection runs at all; a cohort whose lock wait exceeds the timeout
	// aborts its transaction. The paper's configuration uses detection
	// (timeout 0).
	WaitTimeoutMs float64
	// Optimistic makes this O2PL ([Care88]): managers report cc.O2PL and
	// the transaction manager defers all write-lock requests to the first
	// phase of commit (via PrepareDeferred). Locking mechanics, deadlock
	// detection and the Snoop are identical to 2PL.
	Optimistic bool
	// MaxTxns and MaxLocksPerCohort, when positive, pre-size every
	// manager's lock table, the local-detection scratch, the Snoop's
	// gather buffer and the timeout scheme's lock-wait timers for MaxTxns
	// concurrently active transaction attempts each holding at most
	// MaxLocksPerCohort locks per node (the machine passes
	// workload.Generator.MaxAccessesPerCohort, a bound computed from the
	// placement). All of those buffers are self-amortising, but
	// their growth chases high-water records (widest conflict set, biggest
	// waits-for graph) that arrive too rarely for a warmup to retire
	// deterministically; pre-sizing from the machine's concurrency bound
	// makes the steady state allocation-free outright. Zero leaves the
	// buffers to grow on demand.
	MaxTxns           int
	MaxLocksPerCohort int

	// edges and det are the local-detection scratch, shared by every
	// manager this algorithm builds, so one Algorithm serves one machine
	// (never two simulations at once). One use never overlaps another:
	// detection runs to completion inside one Access, a victim learns of
	// its abort by message (RequestAbort → OnAbort → network send), and
	// delivery never re-enters the sender.
	edges []cc.Edge
	det   cc.Detector
}

// NewO2PL creates the O2PL variant: read locks at access time, write locks
// deferred to the first phase of the commit protocol.
func NewO2PL(detectionIntervalMs float64) *Algorithm {
	return &Algorithm{DetectionIntervalMs: detectionIntervalMs, Optimistic: true}
}

// New creates the algorithm with the given global detection interval and
// detection-based deadlock handling.
func New(detectionIntervalMs float64) *Algorithm {
	return &Algorithm{DetectionIntervalMs: detectionIntervalMs}
}

// NewWithTimeout creates the timeout-based variant: waits longer than
// waitTimeoutMs abort the waiter instead of running deadlock detection.
func NewWithTimeout(waitTimeoutMs float64) *Algorithm {
	return &Algorithm{WaitTimeoutMs: waitTimeoutMs}
}

// Kind reports cc.TwoPL, or cc.O2PL for the optimistic variant.
func (a *Algorithm) Kind() cc.Kind {
	if a.Optimistic {
		return cc.O2PL
	}
	return cc.TwoPL
}

// maxEdges bounds one node's waits-for graph: at most MaxTxns waiting
// cohorts, each blocked by at most MaxTxns others.
func (a *Algorithm) maxEdges() int { return a.MaxTxns * a.MaxTxns }

// NewManager creates the per-node lock manager.
func (a *Algorithm) NewManager(env cc.Env) cc.Manager {
	m := &manager{env: env, a: a, kind: a.Kind(), lt: cc.NewLockTable(), timeout: a.WaitTimeoutMs}
	if a.MaxTxns > 0 {
		m.lt.Reserve(a.MaxTxns, max(1, a.MaxLocksPerCohort))
		switch {
		case a.WaitTimeoutMs > 0:
			ws := make([]lockWait, a.MaxTxns)
			m.waits = make([]*lockWait, 0, a.MaxTxns)
			m.waitFree = make([]*lockWait, a.MaxTxns)
			for i := range ws {
				m.waitFree[i] = m.initWait(&ws[i])
			}
		case cap(a.edges) < a.maxEdges():
			a.det.Reserve(a.MaxTxns, a.maxEdges())
			a.edges = make([]cc.Edge, 0, a.maxEdges())
		}
	}
	return m
}

type manager struct {
	env      cc.Env
	a        *Algorithm // owns the shared local-detection scratch
	kind     cc.Kind
	lt       *cc.LockTable
	timeout  float64 // 0: detection; >0: timeout scheme
	timeouts int64
	// waits holds the pending lock-wait timers of the timeout scheme, at
	// most one per cohort: a cohort's next wait here re-arms its timer,
	// and Commit and Abort withdraw it. So pending timers never outnumber
	// the cohorts active at this node, and waitFree starts with MaxTxns
	// of them, one per terminal.
	waits    []*lockWait
	waitFree []*lockWait
	// deferredFree recycles finished deferred-write acquisitions.
	deferredFree []*deferredLocks
}

// Timeouts returns how many lock-wait timeouts this node fired (only in
// timeout mode).
func (m *manager) Timeouts() int64 { return m.timeouts }

func (m *manager) Kind() cc.Kind { return m.kind }

// WaitsForEdges returns the node's waits-for graph in a fresh slice, for
// tests; detection and the Snoop read the lock table into their own
// buffers.
func (m *manager) WaitsForEdges() []cc.Edge { return m.lt.WaitsForEdges(m.env.Node) }

// LockTable exposes the underlying table for invariant checks in tests.
func (m *manager) LockTable() *cc.LockTable { return m.lt }

// TableSize and BlockedCount are the probe sampler's gauges (obs layer).
func (m *manager) TableSize() int    { return m.lt.Size() }
func (m *manager) BlockedCount() int { return m.lt.WaiterCount() }

func (m *manager) Access(co *cc.CohortMeta, page db.PageID, write bool) cc.Outcome {
	if co.Txn.AbortRequested {
		return cc.Aborted
	}
	mode := cc.LockS
	if write {
		mode = cc.LockX
	}
	granted, _ := m.lt.Lock(co, page, mode)
	if granted {
		return cc.Granted
	}
	if m.timeout > 0 {
		// Timeout scheme: no detection; if this wait outlives the timeout,
		// abort the waiter.
		m.armWait(co)
		return co.Block()
	}
	// Local deadlock detection occurs whenever a cohort blocks.
	a := m.a
	a.edges = m.lt.AppendWaitsForEdges(m.env.Node, a.edges[:0])
	for _, v := range a.det.FindVictims(a.edges) {
		v.RequestAbort(m.env.Node, "local deadlock", cc.CauseLocalDeadlock)
	}
	if co.Txn.AbortRequested {
		// We were chosen as the victim (or were already dying): don't park —
		// withdraw the queued request and fail the access immediately.
		m.lt.RemoveWaiter(co)
		return cc.Aborted
	}
	return co.Block()
}

func (m *manager) Prepare(co *cc.CohortMeta) bool { return true }

func (m *manager) Commit(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
	m.endWait(co)
}

func (m *manager) Abort(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
	if co.Waiting() {
		co.Deny()
	}
	m.endWait(co)
}

// lockWait is one cohort's lock-wait timer at a node in the timeout
// scheme. Each wait of the cohort there re-arms it to fire timeout after
// the block, and the cohort's commit or abort there withdraws it, so a
// firing always belongs to the cohort's latest wait in its current
// attempt: it aborts the attempt if that wait is still going on.
type lockWait struct {
	k  sim.Cont
	m  *manager
	co *cc.CohortMeta
}

func (m *manager) initWait(w *lockWait) *lockWait {
	w.m = m
	w.k.Init(m.env.Sim, w.expire)
	return w
}

// armWait (re)arms co's timer for a wait that starts now.
func (m *manager) armWait(co *cc.CohortMeta) {
	var w *lockWait
	if i := m.waitIndex(co); i >= 0 {
		w = m.waits[i]
		w.k.Cancel()
	} else {
		if n := len(m.waitFree); n > 0 {
			w = m.waitFree[n-1]
			m.waitFree[n-1] = nil
			m.waitFree = m.waitFree[:n-1]
		} else {
			w = m.initWait(&lockWait{})
		}
		w.co = co
		m.waits = append(m.waits, w)
	}
	w.k.Delay(m.timeout)
}

// endWait withdraws co's timer at this node, if it has one, and returns
// it to the pool.
func (m *manager) endWait(co *cc.CohortMeta) {
	i := m.waitIndex(co)
	if i < 0 {
		return
	}
	w := m.waits[i]
	w.k.Cancel()
	w.co = nil
	last := len(m.waits) - 1
	m.waits[i], m.waits[last] = m.waits[last], nil
	m.waits = m.waits[:last]
	m.waitFree = append(m.waitFree, w)
}

// waitIndex returns the index of co's timer in waits, or -1.
func (m *manager) waitIndex(co *cc.CohortMeta) int {
	for i, w := range m.waits {
		if w.co == co {
			return i
		}
	}
	return -1
}

// expire ends the cohort's timer and aborts its attempt if the cohort
// still waits at this node: its latest wait has lasted the timeout.
func (w *lockWait) expire() {
	m, co := w.m, w.co
	m.endWait(co)
	if co.Waiting() && co.Node == m.env.Node && co.Txn.RequestAbort(m.env.Node, "lock timeout", cc.CauseLockTimeout) {
		m.timeouts++
	}
}

// PrepareDeferred acquires the deferred remote-copy write locks during the
// first phase of commit ([Care89], paper footnote 13). It runs as a
// process of its own at this node (the cohort's work phase has finished),
// starting at the current time, and may block on each lock like any
// other request — including becoming a deadlock victim, in which case it
// reports a no vote.
func (m *manager) PrepareDeferred(co *cc.CohortMeta, pages []db.PageID, done func(ok bool)) {
	var d *deferredLocks
	if n := len(m.deferredFree); n > 0 {
		d = m.deferredFree[n-1]
		m.deferredFree[n-1] = nil
		m.deferredFree = m.deferredFree[:n-1]
	} else {
		d = &deferredLocks{m: m}
		d.k.Init(m.env.Sim, d.step)
	}
	d.co, d.pages, d.next, d.done = co, pages, -1, done
	d.k.Resume()
}

// deferredLocks is one PrepareDeferred process: it requests write
// permission on pages[next] in turn, waiting out each blocked request.
// next is -1 until the process starts.
type deferredLocks struct {
	k     sim.Cont
	m     *manager
	co    *cc.CohortMeta
	pages []db.PageID
	next  int
	done  func(ok bool)
}

func (d *deferredLocks) step() {
	if d.next < 0 {
		d.co.K = &d.k
		d.next = 0
	} else if d.co.Unblocked() == cc.Aborted {
		d.finish(false)
		return
	} else {
		d.next++
	}
	for ; d.next < len(d.pages); d.next++ {
		switch d.m.Access(d.co, d.pages[d.next], true) {
		case cc.Blocked:
			return
		case cc.Aborted:
			d.finish(false)
			return
		}
	}
	d.finish(true)
}

// finish recycles the process and reports the verdict.
func (d *deferredLocks) finish(ok bool) {
	done := d.done
	d.co, d.pages, d.done = nil, nil, nil
	d.m.deferredFree = append(d.m.deferredFree, d)
	done(ok)
}

// snoop is the rotating global deadlock detector: each node in turn waits
// DetectionIntervalMs, gathers waits-for edges from all other nodes via
// real (CPU-costed) messages, resolves global cycles, and passes the role
// to the next node round-robin.
//
// A round gathers into one buffer: the Snoop node's own snapshot first,
// then each polled node's, appended when the request reaches that node;
// the reply only counts. Edge order is free to follow request arrival
// because FindVictims sorts nodes and adjacency rows by transaction, and
// control messages are exempt from loss and duplication, so every polled
// node appends exactly once per round. The request continuations are
// bound once at startup, so the rounds — which run for the whole
// simulation at the detection interval — are allocation-free in steady
// state.
type snoop struct {
	k     sim.Cont
	a     *Algorithm
	g     cc.GlobalEnv
	mail  sim.Mailbox
	lts   []*cc.LockTable // [node]
	polls []func()        // [polled node]: snapshot into all, then reply
	reply func()
	all   []cc.Edge
	// det is the Snoop's own detector: sized for n nodes' edges, it
	// would keep that array live after the run if the machine's
	// local-detection detector were grown to it instead.
	det    cc.Detector
	node   int  // the node holding the Snoop role
	expect int  // replies this round asked for
	got    int  // replies consumed so far
	round  bool // a round's requests are out
}

// StartGlobal starts the Snoop process at the current time.
func (a *Algorithm) StartGlobal(g cc.GlobalEnv) {
	if a.WaitTimeoutMs > 0 {
		return // timeout scheme: no Snoop
	}
	n := g.NumProcNodes()
	if n < 2 {
		return // local detection already sees the whole graph
	}
	sn := &snoop{a: a, g: g, lts: make([]*cc.LockTable, n), polls: make([]func(), n)}
	sn.reply = func() { sn.mail.Send(nil) }
	for o := range sn.lts {
		lt := g.ManagerAt(o).(*manager).lt
		sn.lts[o] = lt
		sn.polls[o] = func() {
			sn.all = lt.AppendWaitsForEdges(o, sn.all)
			g.SendControl(o, sn.node, sn.reply)
		}
	}
	if a.MaxTxns > 0 {
		e := n * a.maxEdges()
		sn.all = make([]cc.Edge, 0, e)
		sn.det.Reserve(a.MaxTxns, e)
	}
	sn.k.Init(g.Sim(), sn.step)
	sn.k.Resume()
}

// step runs the Snoop from its last waiting point: the detection
// interval, or the reply collection of a round.
func (sn *snoop) step() {
	if !sn.round {
		sn.round = true
		sn.k.Delay(sn.a.DetectionIntervalMs)
		return
	}
	if sn.expect == 0 {
		// The interval has passed: start from this node's own edges, then
		// poll every other node.
		sn.all = sn.lts[sn.node].AppendWaitsForEdges(sn.node, sn.all[:0])
		for o := range sn.lts {
			if o == sn.node {
				continue
			}
			sn.expect++
			sn.g.SendControl(sn.node, o, sn.polls[o])
		}
	}
	for sn.got < sn.expect {
		if _, ok := sn.mail.Recv(&sn.k); !ok {
			return
		}
		sn.got++
	}
	for _, v := range sn.det.FindVictims(sn.all) {
		v.RequestAbort(sn.node, "global deadlock", cc.CauseGlobalDeadlock)
	}
	sn.node = (sn.node + 1) % len(sn.lts)
	sn.expect, sn.got = 0, 0
	sn.k.Delay(sn.a.DetectionIntervalMs)
}
