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
	// manager's lock table, detection scratch and the Snoop's gather
	// buffers for MaxTxns concurrently active transaction attempts each
	// holding at most MaxLocksPerCohort locks per node. All of those
	// buffers are self-amortising, but their growth chases high-water
	// records (widest conflict set, biggest waits-for graph) that arrive
	// too rarely for a warmup to retire deterministically; pre-sizing from
	// the machine's concurrency bound makes the steady state
	// allocation-free outright. Zero leaves the buffers to grow on demand.
	MaxTxns           int
	MaxLocksPerCohort int
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
	m := &manager{env: env, kind: a.Kind(), lt: cc.NewLockTable(), timeout: a.WaitTimeoutMs,
		waitSeq: make(map[*cc.CohortMeta]int64)}
	if a.MaxTxns > 0 {
		m.lt.Reserve(a.MaxTxns, max(1, a.MaxLocksPerCohort))
		m.det.Reserve(a.MaxTxns, a.maxEdges())
		m.edgeBuf = make([]cc.Edge, 0, a.maxEdges())
	}
	return m
}

type manager struct {
	env      cc.Env
	kind     cc.Kind
	lt       *cc.LockTable
	timeout  float64 // 0: detection; >0: timeout scheme
	waitSeq  map[*cc.CohortMeta]int64
	timeouts int64
	// edgeBuf backs the waits-for snapshot local detection takes on every
	// block; the detector consumes it synchronously, so one buffer and one
	// detector per manager make the block path allocation-free.
	edgeBuf []cc.Edge
	det     cc.Detector
	// deferredFree recycles finished deferred-write acquisitions.
	deferredFree []*deferredLocks
}

// Timeouts returns how many lock-wait timeouts this node fired (only in
// timeout mode).
func (m *manager) Timeouts() int64 { return m.timeouts }

func (m *manager) Kind() cc.Kind { return m.kind }

// WaitsForEdges exposes the node's waits-for graph to the Snoop. It
// allocates a fresh slice: the Snoop's snapshot travels through a mailbox
// and must survive later lock-table activity on this node, so it cannot
// alias the local-detection scratch buffer.
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
		// abort the waiter. The sequence number guards against a stale
		// timer firing during a later, different wait.
		m.waitSeq[co]++
		seq := m.waitSeq[co]
		m.env.Sim.After(m.timeout, func() {
			if co.Waiting() && m.waitSeq[co] == seq {
				if co.Txn.RequestAbort(m.env.Node, "lock timeout", cc.CauseLockTimeout) {
					m.timeouts++
				}
			}
		})
		return co.Block()
	}
	// Local deadlock detection occurs whenever a cohort blocks.
	m.edgeBuf = m.lt.AppendWaitsForEdges(m.env.Node, m.edgeBuf[:0])
	for _, v := range m.det.FindVictims(m.edgeBuf) {
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
	delete(m.waitSeq, co)
}

func (m *manager) Abort(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
	if co.Waiting() {
		co.Deny()
	}
	delete(m.waitSeq, co)
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

// snoopNode is the Snoop's per-node state: the node's manager and the
// reused buffer its waits-for snapshot is collected into. The buffer is
// refilled at most once per round and the snoop copies every reply out
// before the next round begins, so reuse cannot alias live data.
type snoopNode struct {
	mgr   *manager
	edges []cc.Edge
}

// snoop is the rotating global deadlock detector: each node in turn waits
// DetectionIntervalMs, gathers waits-for edges from all other nodes via
// real (CPU-costed) messages, resolves global cycles, and passes the role
// to the next node round-robin.
//
// The request and reply continuations for every (snoop node, polled node)
// pair are bound once at startup and each node's snapshot lives in a
// reused buffer, so the rounds themselves — which run for the whole
// simulation at the detection interval — are allocation-free in steady
// state.
type snoop struct {
	k        sim.Cont
	a        *Algorithm
	g        cc.GlobalEnv
	mail     sim.Mailbox
	nodes    []snoopNode
	requests [][]func() // [snoop node][polled node]
	all      []cc.Edge
	det      cc.Detector // reused across rounds; victims are consumed before the next one
	node     int         // the node holding the Snoop role
	expect   int         // replies this round asked for
	got      int         // replies consumed so far
	round    bool        // a round's requests are out
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
	sn := &snoop{a: a, g: g, nodes: make([]snoopNode, n)}
	for o := range sn.nodes {
		sn.nodes[o].mgr = g.ManagerAt(o).(*manager)
	}
	sn.requests = make([][]func(), n)
	for at := 0; at < n; at++ {
		sn.requests[at] = make([]func(), n)
		for o := 0; o < n; o++ {
			if o == at {
				continue
			}
			at, o, nd := at, o, &sn.nodes[o]
			reply := func() { sn.mail.Send(&nd.edges) }
			sn.requests[at][o] = func() {
				nd.edges = nd.mgr.lt.AppendWaitsForEdges(o, nd.edges[:0])
				g.SendControl(o, at, reply)
			}
		}
	}
	if a.MaxTxns > 0 {
		e := a.maxEdges()
		for o := range sn.nodes {
			sn.nodes[o].edges = make([]cc.Edge, 0, e)
		}
		sn.all = make([]cc.Edge, 0, n*e)
		sn.det.Reserve(a.MaxTxns, n*e)
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
		// The interval has passed: poll every other node and start from
		// this node's own edges.
		for o := range sn.nodes {
			if o == sn.node {
				continue
			}
			sn.expect++
			sn.g.SendControl(sn.node, o, sn.requests[sn.node][o])
		}
		sn.all = sn.nodes[sn.node].mgr.lt.AppendWaitsForEdges(sn.node, sn.all[:0])
	}
	for sn.got < sn.expect {
		msg, ok := sn.mail.Recv(&sn.k)
		if !ok {
			return
		}
		sn.all = append(sn.all, *msg.(*[]cc.Edge)...)
		sn.got++
	}
	for _, v := range sn.det.FindVictims(sn.all) {
		v.RequestAbort(sn.node, "global deadlock", cc.CauseGlobalDeadlock)
	}
	sn.node = (sn.node + 1) % len(sn.nodes)
	sn.expect, sn.got = 0, 0
	sn.k.Delay(sn.a.DetectionIntervalMs)
}
