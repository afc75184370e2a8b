// Package commit is the commit-protocol layer of the transaction manager:
// the coordinator-side and cohort-side state machines that take a
// transaction attempt from the end of its work phase (work → prepare →
// decide → resolve) to a globally resolved commit or abort. The paper's
// centralized two-phase commit (§2.1, §3.3) is the default; the
// presumed-abort and presumed-commit variants of Mohan, Lindsay & Obermarck
// ("Transaction Management in the R* Distributed Database Management
// System") reduce the acknowledgement traffic and forced log writes the
// paper identifies as first-order commit costs (§2.4, §4.4).
//
// The protocols drive machine resources only through the narrow Env
// facade, so the layer stays independent of the machine assembly: it sees
// the network as Send, the log as ForceLog/ForceLogAsync, and the
// concurrency control layer as cc.Manager. One fan-out primitive (fanOut)
// carries every per-cohort broadcast — prepare, commit phase two, and
// abort.
package commit

import (
	"fmt"

	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/network"
	"ddbm/internal/sim"
)

// Kind identifies a commit protocol variant.
type Kind int

const (
	// CentralizedTwoPC is the paper's centralized two-phase commit (§2.1):
	// every cohort is prepared, votes, receives the decision, and
	// acknowledges it; aborts are likewise acknowledged before the
	// coordinator forgets the transaction. With logging modeled, every
	// cohort forces a prepare record and the coordinator forces the commit
	// record. The zero value, and the default.
	CentralizedTwoPC Kind = iota
	// PresumedAbort is R*'s presumed-abort 2PC: in the absence of log
	// records the outcome is presumed to be abort, so abort messages need
	// no acknowledgements (the coordinator forgets the transaction the
	// moment they are sent) and the abort path forces nothing. Read-only
	// cohorts vote READ, release immediately, and take no part in phase
	// two; a fully read-only transaction skips the decision force and
	// phase two entirely.
	PresumedAbort
	// PresumedCommit is R*'s presumed-commit 2PC: the coordinator forces a
	// collecting (initiation) record before the prepare phase, after which
	// the outcome is presumed to be commit — COMMIT messages need no
	// acknowledgements and cohorts write no forced commit records, while
	// abort messages must be acknowledged and, with logging modeled, abort
	// records forced at the cohorts. Read-only cohorts short-circuit as
	// under PresumedAbort.
	PresumedCommit
)

var kindNames = [...]string{
	CentralizedTwoPC: "2PC",
	PresumedAbort:    "PA",
	PresumedCommit:   "PC",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a protocol name (as printed by String) to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("commit: unknown protocol %q (want 2PC, PA or PC)", s)
}

// Kinds lists every protocol variant, default first.
func Kinds() []Kind { return []Kind{CentralizedTwoPC, PresumedAbort, PresumedCommit} }

// Vote is a cohort's reply to the PREPARE message. ReadOnly marks the READ
// vote of the presumed protocols' read-only short-circuit: the cohort has
// already released locally and takes no part in phase two.
type Vote struct {
	Idx      int
	Yes      bool
	ReadOnly bool
}

// Ack acknowledges an abort message at the coordinator.
type Ack struct{ Idx int }

// AbortSignal is the transaction manager's message demanding that the
// attempt abort: a cohort's self-abort (Idx is the cohort's index) or a
// remote wound or deadlock-victim notice (Idx is -1). The vote collection
// loop treats it as a failed prepare phase. It is a concrete type, so the
// mail loops' type switches match every message by its type word alone;
// an interface case sends the messages it does not match through the
// runtime, which builds that switch's type cache at a random call.
type AbortSignal struct{ Idx int }

// Message tags for the typed network envelopes the protocol exchanges.
// Cohort implements network.Handler: node-bound tags run the cohort-side
// state machine at its node, host-bound tags deliver the cohort's embedded
// vote/ack into the coordinator's mailbox.
const (
	tagPrepare = iota // host → node: run the local first phase and vote
	tagCommit         // host → node: phase-two COMMIT (release, install, maybe ack)
	tagAbort          // host → node: ABORT (release, maybe force, maybe ack)
	tagVote           // node → host: deliver &c.vote to the coordinator
	tagAck            // node → host: deliver &c.ack to the coordinator
)

// Cohort is the protocol layer's handle on one cohort of one attempt. It
// is owned (and free-listed) by the transaction manager; Txn.Attach resets
// it for each attempt, and all of its protocol messages are pre-bound:
// the vote and ack travel as pointers to the embedded structs, and the
// deferred-write and log-force continuations are method values bound once
// per pooled object, so a steady-state attempt allocates nothing here.
type Cohort struct {
	// Idx is the cohort's index within the transaction; votes and acks
	// carry it back to the coordinator. Assigned by Txn.Attach.
	Idx int
	// Meta is the cohort as the concurrency control managers see it.
	Meta *cc.CohortMeta
	// ReadOnly reports that the cohort updates nothing — no local writes
	// and no remote-copy write permissions — making it eligible for the
	// presumed protocols' read-only vote short-circuit.
	ReadOnly bool
	// Deferred lists write permissions requested only in the prepare phase
	// (all writes under O2PL, remote-copy writes under
	// DeferRemoteWriteLocks); the node may block before it can vote. The
	// owner refills it per attempt (Attach reslices it to empty, keeping
	// the backing array).
	Deferred []db.PageID

	// done marks a cohort resolved before phase two (read-only
	// short-circuit); fanOut skips it.
	done bool
	// dead marks a cohort lost to a node crash: the coordinator stops
	// addressing it (fanOut skips it) and the recovery layer resolves its
	// node-side state instead. Set by MarkDead, reset by Attach.
	dead bool
	// abortSent and acked track the abort acknowledgement per cohort so
	// crash handling can substitute a synthetic ack for a dead cohort
	// without double counting: fanOut sets abortSent, the coordinator's
	// ack loop sets acked on the first (real or synthetic) ack.
	abortSent bool
	acked     bool

	t    *Txn // owning attempt, set by Attach
	vote Vote // travels by pointer; at most one vote in flight per attempt
	ack  Ack  // travels by pointer; at most one ack in flight per attempt

	deferredFn  func(ok bool) // c.deferredDone, bound once per pooled cohort
	voteForceFn func()        // c.votedAfterForce, bound once per pooled cohort
	ackForceFn  func()        // c.ackAfterForce, bound once per pooled cohort
}

// Txn is one transaction attempt as the protocol layer sees it: the shared
// metadata, the coordinator's mailbox, and the cohorts.
type Txn struct {
	Meta *cc.TxnMeta
	Mail *sim.Mailbox
	// Cohorts in load order; Vote.Idx and Ack.Idx index this slice.
	Cohorts []*Cohort

	// Protocol-run state, set at Commit/Abort entry so the cohort-side
	// handlers can reach the environment and variant flags without any
	// per-message closure.
	env          Env
	tp           *Protocol
	shortCircuit bool

	// The coordinator's place in a Commit or Abort run that is waiting
	// (stepIdle between runs), and the votes or acks still outstanding.
	step    uint8
	pending int
}

// Reset prepares a (possibly recycled) Txn for a new attempt: fresh
// metadata and mailbox, no cohorts. The cohort slice keeps its backing
// array, so re-attaching the attempt's cohorts does not allocate once the
// slice has reached the machine's cohort high-water mark.
func (t *Txn) Reset(meta *cc.TxnMeta, mail *sim.Mailbox) {
	t.Meta, t.Mail = meta, mail
	for i := range t.Cohorts {
		t.Cohorts[i] = nil
	}
	t.Cohorts = t.Cohorts[:0]
	t.env, t.tp, t.shortCircuit = nil, nil, false
	t.step, t.pending = stepIdle, 0
}

// Attach adds a cohort to the attempt, assigning its index and resetting
// its per-attempt protocol state. The cohort keeps its Deferred backing
// array (resliced to empty) and its pre-bound continuations.
func (t *Txn) Attach(c *Cohort) {
	c.Idx = len(t.Cohorts)
	c.t = t
	c.ReadOnly = false
	c.done = false
	c.dead = false
	c.abortSent, c.acked = false, false
	c.Deferred = c.Deferred[:0]
	c.vote = Vote{Idx: c.Idx}
	c.ack = Ack{Idx: c.Idx}
	if c.deferredFn == nil {
		c.deferredFn = c.deferredDone
		c.voteForceFn = c.votedAfterForce
		c.ackForceFn = c.ackAfterForce
	}
	t.Cohorts = append(t.Cohorts, c)
}

// Env is the narrow facade over the machine resources a commit protocol
// may drive: the coordinator's network endpoint, the per-node concurrency
// control managers, the log (host and cohort disks), the timestamp source,
// and observation hooks. All methods run in simulation context.
type Env interface {
	// Host returns the coordinator's node id.
	Host() int
	// Send delivers a typed message between nodes with full per-end
	// message CPU costs; a nil handler sends a pure-load message (e.g. a
	// commit ack).
	Send(from, to int, h network.Handler, tag int)
	// Retain and Release bracket every in-flight reference the protocol
	// creates to attempt-owned state (envelopes carrying a Cohort, force
	// and deferred-write continuations): the transaction manager recycles
	// an attempt's state only once the count drains, so stragglers — late
	// votes after an early abort return, phase-two deliveries after Commit
	// returns — never touch recycled memory.
	Retain()
	Release()
	// Manager returns the concurrency control manager at a node.
	Manager(node int) cc.Manager
	// NextTS draws the next globally unique, monotone timestamp.
	NextTS() int64
	// Logging reports whether log forces are modeled (Config.ModelLogging).
	Logging() bool
	// ForceLog synchronously forces a log record at the coordinator's
	// node: the coordinator waits, and k resumes it once the record is on
	// disk. abortPath attributes the force to abort handling for the
	// metrics.
	ForceLog(k *sim.Cont, abortPath bool)
	// ForceLogAsync forces a log record at a cohort node's disk and then
	// runs done.
	ForceLogAsync(node int, abortPath bool, done func())
	// InstallCommit applies a committed cohort's buffered updates at its
	// node: audit installs plus the per-page deferred write initiation
	// costs. Called at the cohort's node, after Manager(node).Commit.
	InstallCommit(c *Cohort)
	// RecordCommit registers the committed transaction with the machine's
	// serializability auditor. Called once, at the commit decision.
	RecordCommit()
	// Prepared observes the successful end of the prepare phase (all
	// votes yes); Decided observes the commit decision. Observation only —
	// neither may affect simulated behaviour.
	Prepared()
	Decided(committed bool)
	// CohortInDoubt marks the opening of a cohort's in-doubt window: it
	// has voted YES (non-read-only) and holds its locks until the decision
	// arrives. CohortResolved closes the window with the outcome applied
	// at the cohort's node; it also fires for the read-only short-circuit
	// (which never opens a window) so the fault layer can retire the
	// cohort's node-side registration. Down reports a crashed node. All
	// three are no-ops in a fault-free machine.
	CohortInDoubt(c *Cohort)
	CohortResolved(c *Cohort, committed bool)
	Down(node int) bool
}

// Status is where a coordinator-side protocol run stands when Commit or
// Abort returns.
type Status uint8

const (
	// Waiting: the coordinator waits for a log force or for mail; k has
	// been scheduled or registered to resume it, and the coordinator then
	// calls the same method again, which continues where the run stopped.
	Waiting Status = iota
	// Committed: Commit reached the commit decision and sent phase two.
	Committed
	// Aborted: Commit found that the attempt must abort (the transaction
	// manager then runs Abort, which is always safe after it), or Abort
	// finished and the coordinator may forget the attempt.
	Aborted
)

// New returns the protocol implementing a variant.
func New(k Kind) (*Protocol, error) {
	switch k {
	case CentralizedTwoPC:
		return &Protocol{ackCommits: true, ackAborts: true}, nil
	case PresumedAbort:
		return &Protocol{shortCircuitRO: true, ackCommits: true}, nil
	case PresumedCommit:
		return &Protocol{shortCircuitRO: true, initForce: true, ackAborts: true, abortForce: true}, nil
	default:
		return nil, fmt.Errorf("commit: unknown protocol %v", k)
	}
}

// fanOut sends one tagged envelope to every live cohort's node, in cohort
// order — the one primitive behind the prepare, commit phase-two and abort
// fan-outs. Cohorts already resolved by the read-only short-circuit, dead
// cohorts (node crash) and cohorts at currently-down nodes are skipped.
// Each envelope carries the cohort itself as its handler and holds one
// attempt reference until the handler's chain completes. It returns the
// number of messages sent.
func fanOut(env Env, cohorts []*Cohort, tag int) int {
	n := 0
	for _, c := range cohorts {
		if c.done || c.dead {
			continue
		}
		if env.Down(c.Meta.Node) {
			// A crashed node's cohort state is the recovery layer's
			// problem; sending would only be dropped at the network.
			continue
		}
		n++
		if tag == tagAbort {
			c.abortSent = true
		}
		env.Retain()
		env.Send(env.Host(), c.Meta.Node, c, tag)
	}
	return n
}

// MarkDead severs a cohort lost to a node crash from the coordinator's
// protocol run: later fan-outs skip it, and if an abort acknowledgement is
// outstanding a synthetic ack is delivered locally so the coordinator's
// wait can finish — the cohort's node will never send the real one. Any
// duplicate ack this can produce (the real one already in flight) is
// deduplicated by the coordinator's Idx-keyed ack accounting, and
// leftovers are cleared when the attempt's mailbox resets.
func (c *Cohort) MarkDead() {
	if c.dead {
		return
	}
	c.dead = true
	if c.abortSent && !c.acked && c.t.tp != nil && c.t.tp.ackAborts {
		c.t.Mail.Send(&c.ack)
	}
}

// Dead reports whether MarkDead severed this cohort.
func (c *Cohort) Dead() bool { return c.dead }

// MsgDropped runs in place of HandleMsg when one of this cohort's protocol
// envelopes is discarded at a crashed node: the envelope's attempt
// reference is released, and a dropped abort or ack is substituted with a
// locally delivered ack so the coordinator's abort wait cannot hang on a
// message that died with the node.
func (c *Cohort) MsgDropped(tag int) {
	if (tag == tagAbort || tag == tagAck) && !c.acked &&
		c.t.tp != nil && c.t.tp.ackAborts {
		c.t.Mail.Send(&c.ack)
	}
	c.t.env.Release()
}
