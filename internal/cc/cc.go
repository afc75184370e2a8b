// Package cc defines the concurrency control framework of the simulator:
// the per-node Manager interface every algorithm implements (paper §3.6),
// the transaction/cohort metadata the algorithms operate on, and shared
// machinery (lock table, waits-for graphs, cycle detection) used by the
// locking algorithms.
package cc

import (
	"fmt"

	"ddbm/internal/db"
	"ddbm/internal/sim"
)

// Kind identifies a concurrency control algorithm.
type Kind int

const (
	// TwoPL is distributed two-phase locking with local deadlock detection
	// and a rotating global "Snoop" detector (paper §2.2).
	TwoPL Kind = iota
	// WoundWait is the wound-wait locking algorithm of Rosenkrantz et al.
	// (paper §2.3).
	WoundWait
	// BTO is basic timestamp ordering (paper §2.4).
	BTO
	// OPT is distributed timestamp-based optimistic certification
	// (paper §2.5).
	OPT
	// NoDC is the "no data contention" baseline: every request granted,
	// no aborts — equivalent to 2PL against an infinite database (§4.2).
	NoDC
	// O2PL is optimistic two-phase locking from [Care88]: read locks are
	// taken immediately but write locks are deferred until the first phase
	// of the commit protocol. The paper's Table 4 notes its simulator
	// carried O2PL ("the global deadlock detection interval for 2PL and
	// O2PL is 1 second") without presenting results for it.
	O2PL
)

var kindNames = map[Kind]string{
	TwoPL:     "2PL",
	WoundWait: "WW",
	BTO:       "BTO",
	OPT:       "OPT",
	NoDC:      "NO_DC",
	O2PL:      "O2PL",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts an algorithm name (as printed by String) to a Kind.
func ParseKind(s string) (Kind, error) {
	//ddbmlint:ordered kindNames values are unique, so at most one iteration can match and return
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cc: unknown algorithm %q (want 2PL, WW, BTO, OPT or NO_DC)", s)
}

// Kinds lists the paper's four algorithms plus the NO_DC baseline, in the
// paper's presentation order. O2PL (unpresented in the paper) is excluded;
// add it explicitly where wanted.
func Kinds() []Kind { return []Kind{TwoPL, BTO, WoundWait, OPT, NoDC} }

// Cause classifies why a transaction attempt aborted — which rule of
// which layer demanded it. Every abort site in cc, commit and core
// records one (via RequestAbort or NoteCause); the first recorded cause
// wins, matching the first-event-wins semantics of AbortRequested.
type Cause uint8

const (
	// CauseNone: no abort cause recorded (the attempt committed, or no
	// site has attributed the abort yet).
	CauseNone Cause = iota
	// CauseLocalDeadlock: chosen as victim by a node-local deadlock
	// detection pass (2PL).
	CauseLocalDeadlock
	// CauseGlobalDeadlock: chosen as victim by the Snoop's global
	// deadlock detection (2PL).
	CauseGlobalDeadlock
	// CauseLockTimeout: a lock wait exceeded LockWaitTimeoutMs
	// (footnote 2's timeout scheme).
	CauseLockTimeout
	// CauseWound: wounded by an older transaction (wound-wait).
	CauseWound
	// CauseBTOTooLate: rejected by a BTO timestamp rule — the access
	// arrived too late relative to committed or pending versions.
	CauseBTOTooLate
	// CauseOPTCertify: failed OPT certification at prepare time.
	CauseOPTCertify
	// CauseCoordinator: resolved as aborted by the coordinator without a
	// more specific cause (e.g. a failed vote whose origin recorded
	// nothing).
	CauseCoordinator
	// CauseNodeCrash: a processing node holding one of the attempt's
	// cohorts crash-stopped before the commit decision.
	CauseNodeCrash
	// CauseCoordinatorCrash: the host crashed while the attempt was still
	// abortable; the failover coordinator aborts everything in flight.
	CauseCoordinatorCrash

	// NumCauses sizes per-cause counters.
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseNone:             "none",
	CauseLocalDeadlock:    "local-deadlock",
	CauseGlobalDeadlock:   "global-deadlock",
	CauseLockTimeout:      "lock-timeout",
	CauseWound:            "wound",
	CauseBTOTooLate:       "bto-too-late",
	CauseOPTCertify:       "opt-certify",
	CauseCoordinator:      "coordinator",
	CauseNodeCrash:        "node-crash",
	CauseCoordinatorCrash: "coordinator-crash",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// TxnState tracks where a transaction execution attempt is in its life
// cycle. The distinction that matters to the algorithms is Committing:
// once the commit decision is made (second phase of the commit protocol),
// wounds and deadlock-victim aborts must be ignored.
type TxnState int

const (
	// Active: cohorts are executing their read/write phases.
	Active TxnState = iota
	// Preparing: the coordinator has started the first phase of commit.
	Preparing
	// Committing: commit decision made; the transaction can no longer abort.
	Committing
	// Finished: commit or abort processing completed at all nodes.
	Finished
)

// TxnMeta is one execution attempt of a transaction as seen by the
// concurrency control managers. A fresh TxnMeta is created for every
// attempt; ID and TS persist across attempts while AttemptTS is redrawn.
type TxnMeta struct {
	// ID is the transaction identifier, stable across restarts.
	ID int64
	// TS is the original startup timestamp (first attempt), used by
	// wound-wait and for 2PL deadlock-victim selection; keeping it across
	// restarts makes restarted transactions age and eventually win.
	TS int64
	// AttemptTS is the timestamp of this execution attempt; BTO orders
	// accesses by it (a restarted transaction must get a fresh, later
	// timestamp or it would abort again immediately).
	AttemptTS int64
	// CommitTS is the globally unique timestamp assigned when the commit
	// protocol starts; OPT certifies against it.
	CommitTS int64
	// DecisionTS is assigned at the commit decision. For the strict locking
	// algorithms the decision order is the serialization order (a blocking
	// prepare phase — deferred write locks — can reorder decisions relative
	// to CommitTS).
	DecisionTS int64
	// State is maintained by the transaction manager.
	State TxnState
	// AbortRequested is set (once) when any party demands the attempt abort.
	AbortRequested bool
	// AbortReason records why, for diagnostics and metrics.
	AbortReason string
	// AbortCause classifies the abort for the breakdown accounting's
	// per-cause counters; AbortNode is the node whose manager (or
	// coordinator) attributed it. First recorded cause wins (NoteCause).
	AbortCause Cause
	AbortNode  int
	// OnAbort tells the transaction manager an abort is required; fromNode
	// is the node where the decision was made (the notification travels
	// from there to the coordinator). Installed by the transaction manager.
	OnAbort func(fromNode int)

	// detGen/detRank are the deadlock detectors' scratch slot on the
	// transaction: its rank (graph array index) in the waits-for graph
	// currently being analysed. Each detection pass draws a globally
	// unique generation, so a stamp is valid exactly when detGen matches
	// the asking pass — the per-node detectors and the Snoop's can stamp
	// the same transaction without any clearing between passes, and no
	// detector needs a rank map (whose bucket churn allocated under
	// steady insert/delete).
	detGen  uint64
	detRank int32
}

// RequestAbort asks the transaction manager to abort this attempt. It is
// idempotent and refuses once the commit decision has been made (a wound in
// the second phase of the commit protocol "is not fatal").
// It reports whether the abort was accepted.
//
//ddbmlint:hotpath abort demand on the contention path pinned by TestSteadyStateAllocFree
func (t *TxnMeta) RequestAbort(fromNode int, reason string, cause Cause) bool {
	if t.AbortRequested {
		return true
	}
	if t.State >= Committing {
		return false
	}
	t.AbortRequested = true
	t.AbortReason = reason
	t.NoteCause(fromNode, cause)
	if t.OnAbort != nil {
		t.OnAbort(fromNode) //ddbmlint:allow hotpath-alloc pre-bound abort observer; installed once per pooled attempt and audited by the core alloc pins
	}
	return true
}

// NoteCause records the abort cause and attributing node if none is
// recorded yet — the seam for sites that doom an attempt without calling
// RequestAbort (BTO timestamp rejections, OPT certification failures,
// the coordinator's default attribution). First cause wins.
//
//ddbmlint:hotpath abort-cause attribution pinned by TestSteadyStateAllocFree
func (t *TxnMeta) NoteCause(fromNode int, cause Cause) {
	if t.AbortCause == CauseNone {
		t.AbortCause = cause
		t.AbortNode = fromNode
	}
}

// Abortable reports whether the attempt can still be aborted.
func (t *TxnMeta) Abortable() bool {
	return !t.AbortRequested && t.State < Committing
}

// Outcome is the result of a concurrency control access request.
type Outcome int

const (
	// Granted: the access may proceed.
	Granted Outcome = iota
	// Aborted: the transaction must abort (either this access was rejected
	// or the attempt was aborted while the cohort waited).
	Aborted
	// Blocked: the request is queued and the cohort waits. Its
	// continuation (CohortMeta.K) is resumed when the verdict arrives, and
	// the resumed step reads the verdict with CohortMeta.Unblocked.
	Blocked
)

var outcomeNames = [...]string{Granted: "granted", Aborted: "aborted", Blocked: "blocked"}

func (o Outcome) String() string {
	if o >= 0 && int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// CohortMeta is the per-node cohort of a transaction attempt as seen by
// that node's concurrency control manager.
type CohortMeta struct {
	Txn *TxnMeta
	// K is the continuation of the process the cohort's requests run in:
	// a blocked request resumes it with the verdict. The work phase and a
	// deferred-write acquisition each point it at their own handle.
	K    *sim.Cont
	Node int

	waiting     bool
	resolved    bool // verdict arrived before the cohort parked
	waitOutcome Outcome
	blockedAt   sim.Time

	// queuedAt/queued and heldLocks are the cohort's slots in its node's
	// lock table (the page its queued request waits on, and its held set).
	// They live on the meta rather than in table-side maps so the
	// contention path has no map churn: a cohort only ever acquires locks
	// from the one table of the node it runs on, recorded in lockOwner.
	// Calls against any other table (a coordinator broadcasting an abort
	// to every node, say) see foreign state and must treat the cohort as
	// unknown — exactly what the former map lookups did.
	lockOwner *LockTable
	queuedAt  db.PageID
	queued    bool
	heldLocks *cohortLocks

	// OnBlocked, if set, observes every blocking episode's duration
	// (the paper's "average blocking time" metric for 2PL). It receives
	// the cohort itself so the observer can read per-episode attribution
	// flags (BlockedInDoubt) without a per-cohort closure.
	OnBlocked func(co *CohortMeta, d sim.Time)

	// InDoubt marks a cohort that has voted yes and not yet learned the
	// decision — its locks survive a crash of its node and must block
	// newcomers until recovery resolves it. BlockedInDoubt is set on a
	// waiter whose conflict set included an in-doubt holder when it
	// blocked. Both are maintained only when the fault layer is active.
	InDoubt        bool
	BlockedInDoubt bool
}

// CrashReset clears the wait-state a cohort held when its node crashed, so
// a later Deny/Grant from sweep-driven cleanup cannot resume a process
// that no longer exists. The in-doubt marker survives: it is the one piece
// of crash state that must outlive the process.
func (c *CohortMeta) CrashReset() {
	c.waiting = false
	c.resolved = false
	c.BlockedInDoubt = false
}

// Block parks the cohort on a queued request; a manager's Access returns
// its result. If the verdict arrived before the cohort parked (a queued
// request can be granted synchronously when its blocker releases), Block
// returns that verdict and the cohort continues inline. Otherwise it
// returns Blocked: Grant or Deny later resumes c.K, and the resumed step
// calls Unblocked.
func (c *CohortMeta) Block() Outcome {
	if c.resolved {
		c.resolved = false
		return c.waitOutcome
	}
	c.waiting = true
	c.blockedAt = c.K.Sim().Now()
	return Blocked
}

// Unblocked returns the verdict that ended a blocking episode, reporting
// the episode's duration to OnBlocked first. The cohort's step calls it
// when its continuation fires after Access returned Blocked.
func (c *CohortMeta) Unblocked() Outcome {
	out, d := c.Verdict()
	if c.OnBlocked != nil {
		c.OnBlocked(c, d)
	}
	return out
}

// Verdict is Unblocked for a caller that observes the episode itself: it
// returns the verdict and the episode's duration without calling
// OnBlocked.
func (c *CohortMeta) Verdict() (Outcome, sim.Time) {
	return c.waitOutcome, c.K.Sim().Now() - c.blockedAt
}

// Waiting reports whether the cohort is parked in Block.
func (c *CohortMeta) Waiting() bool { return c.waiting }

// Grant resumes a blocked cohort with a granted access.
func (c *CohortMeta) Grant() { c.release(Granted) }

// Deny resumes a blocked cohort telling it the attempt is aborted.
func (c *CohortMeta) Deny() { c.release(Aborted) }

func (c *CohortMeta) release(o Outcome) {
	if !c.waiting {
		// The cohort has not parked yet: record the verdict for Block.
		c.resolved = true
		c.waitOutcome = o
		return
	}
	c.waiting = false
	c.waitOutcome = o
	c.K.Resume()
}

// Manager is one node's concurrency control manager. All methods run in
// simulation context (from a process step or an event callback); Access
// may park the calling cohort.
type Manager interface {
	// Kind identifies the algorithm.
	Kind() Kind
	// Access requests permission to read (write=false) or write (write=true)
	// a page stored at this node. For updated pages the transaction manager
	// first requests read access and later write access on the same page,
	// modelling read-lock-then-upgrade. Access returns Granted or Aborted,
	// or Blocked when the cohort must wait (see CohortMeta.Block).
	Access(co *CohortMeta, page db.PageID, write bool) Outcome
	// Prepare runs the local first phase of commit for the cohort and
	// returns its vote. For OPT this performs local certification against
	// co.Txn.CommitTS.
	Prepare(co *CohortMeta) bool
	// Commit finalizes locally: release locks, install writes, make pending
	// updates visible. Idempotent.
	Commit(co *CohortMeta)
	// Abort undoes local state: releases locks, drops pending writes and
	// certified entries, and denies the cohort if it is blocked here.
	// Idempotent, and safe to call for cohorts that never accessed the node.
	Abort(co *CohortMeta)
}

// DeferredWriter is implemented by managers that support deferring write
// permission requests (remote-copy write locks) to the first phase of the
// commit protocol, per [Care89]. PrepareDeferred acquires write permission
// on each page — waiting in a process of its own as needed — and then
// reports whether the cohort can vote yes. It must tolerate the
// transaction being aborted while it waits (reporting false).
type DeferredWriter interface {
	PrepareDeferred(co *CohortMeta, pages []db.PageID, done func(ok bool))
}

// Env gives a per-node manager its simulation context.
type Env struct {
	Sim  *sim.Sim
	Node int
}

// GlobalEnv is what algorithm-global machinery (the 2PL Snoop) sees of the
// machine: the clock, the processing nodes, their managers, and a way to
// exchange control messages with full message CPU costs.
type GlobalEnv interface {
	Sim() *sim.Sim
	NumProcNodes() int
	ManagerAt(node int) Manager
	// SendControl delivers a control message from one node to another,
	// invoking deliver at the destination after message-processing costs.
	SendControl(from, to int, deliver func())
}

// Algorithm constructs per-node managers and optional global machinery.
type Algorithm interface {
	Kind() Kind
	NewManager(env Env) Manager
	// StartGlobal starts algorithm-global processes (e.g. the Snoop
	// deadlock detector). Called once after all managers exist; may be a
	// no-op.
	StartGlobal(g GlobalEnv)
}
