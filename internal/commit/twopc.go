package commit

import (
	"ddbm/internal/cc"
	"ddbm/internal/sim"
)

// Protocol is one two-phase commit variant: the coordinator-side state
// machine driving prepare → decide → resolve and the cohort-side rules for
// voting, logging and acknowledging. All three variants are this one state
// machine, parameterized by what each acknowledges, forces and
// short-circuits. The phase order is fixed — prepare fan-out, vote
// collection, decision logging, decision, phase-two fan-out — and matches
// the paper's centralized protocol exactly when all savings are off.
//
// The coordinator is a process whose continuation is k: a Commit or Abort
// run that must wait returns Waiting and is resumed by calling the same
// method again once k fires. The cohort-side steps run as Cohort methods
// dispatched from tagged network envelopes (see Cohort.HandleMsg), so one
// attempt's whole message flow reuses the attempt's pre-bound state
// instead of chaining closures.
type Protocol struct {
	// shortCircuitRO lets read-only cohorts vote READ: release locally at
	// prepare time and drop out of phase two (the presumed variants).
	shortCircuitRO bool
	// initForce forces a collecting record at the coordinator before the
	// prepare fan-out (presumed commit's extra force).
	initForce bool
	// ackCommits has cohorts acknowledge COMMIT messages.
	ackCommits bool
	// ackAborts has cohorts acknowledge ABORT messages; without it the
	// coordinator forgets the attempt as soon as the aborts are sent.
	ackAborts bool
	// abortForce has cohorts force an abort record before acknowledging
	// (presumed commit: the explicit abort must survive a crash or the
	// presumption would commit it).
	abortForce bool
}

// Coordinator-side run steps (Txn.step). A run starts at stepIdle, and
// every step after it follows the one place where the coordinator waits:
// a log force or the mail it collects.
const (
	stepIdle           uint8 = iota
	stepInitForced           // Commit: presumed commit's collecting record is on disk
	stepVotes                // Commit: collecting votes
	stepDecisionForced       // Commit: the commit record is on disk
	stepAcks                 // Abort: collecting abort acknowledgements
)

// Commit drives the coordinator through prepare → decide → resolve. Any
// failed vote, abort signal, or abort raced in behind a log force returns
// Aborted with the attempt still unresolved; the caller runs Abort.
func (tp *Protocol) Commit(k *sim.Cont, env Env, t *Txn) Status {
	meta := t.Meta
	switch t.step {
	case stepIdle:
		t.env, t.tp = env, tp
		// Phase one: the commit timestamp travels to every cohort in the
		// "prepare to commit" message (OPT certifies against it).
		meta.State = cc.Preparing
		meta.CommitTS = env.NextTS()
		if tp.initForce && env.Logging() {
			// Presumed commit: force the collecting record before any
			// cohort can prepare, or a coordinator crash would
			// presume-commit a transaction that never decided.
			env.ForceLog(k, false)
			t.step = stepInitForced
			return Waiting
		}
		tp.sendPrepares(env, t)
	case stepInitForced:
		if meta.AbortRequested {
			return t.finish(Aborted)
		}
		tp.sendPrepares(env, t)
	case stepDecisionForced:
		if meta.AbortRequested {
			// An abort raced in while the force was on disk.
			return t.finish(Aborted)
		}
		return tp.decide(env, t)
	}
	// stepVotes: collect the votes.
	over, yes := tp.collectVotes(k, t)
	if !over {
		return Waiting
	}
	if !yes {
		return t.finish(Aborted)
	}
	if meta.AbortRequested {
		// A wound or deadlock abort raced in behind the last vote: the
		// coordinator learns of it before deciding, so the abort wins.
		return t.finish(Aborted)
	}
	env.Prepared()

	if env.Logging() && tp.decisionForce(t) {
		// Force the commit record at the coordinator's node before the
		// decision becomes durable (and before the response completes).
		env.ForceLog(k, false)
		t.step = stepDecisionForced
		return Waiting
	}
	return tp.decide(env, t)
}

// decide makes the commit decision: from here the transaction can no
// longer abort and the response is complete. Phase two runs
// asynchronously: COMMIT messages release locks and install updates at
// each node, and cohorts acknowledge (CPU load only) where the variant
// requires it.
func (tp *Protocol) decide(env Env, t *Txn) Status {
	meta := t.Meta
	meta.State = cc.Committing
	meta.DecisionTS = env.NextTS()
	env.Decided(true)
	env.RecordCommit()

	fanOut(env, t.Cohorts, tagCommit)
	return t.finish(Committed)
}

// finish ends a coordinator run, leaving the Txn ready for the next one.
func (t *Txn) finish(st Status) Status {
	t.step = stepIdle
	return st
}

// sendPrepares runs the prepare fan-out: each cohort votes after its local
// first phase (deferred write permissions first where configured), forcing
// a prepare record before a YES vote when logging is modeled. Read-only
// cohorts under the presumed variants vote READ instead: they resolve
// locally at once, force nothing, and drop out of phase two.
//
// The READ short-circuit is sound only when the transaction's lock point
// has passed by prepare time — true for the locking algorithms' normal
// mode, where every permission was acquired during the work phase. When
// any cohort still has deferred write permissions to acquire (O2PL), an
// early read release would open a serializability window (another
// transaction could overwrite the released reads and then be overwritten
// by this one), so the short-circuit is suppressed for the whole
// transaction.
func (tp *Protocol) sendPrepares(env Env, t *Txn) {
	t.step, t.pending = stepVotes, len(t.Cohorts)
	t.shortCircuit = tp.shortCircuitRO
	if t.shortCircuit {
		for _, c := range t.Cohorts {
			if len(c.Deferred) > 0 {
				t.shortCircuit = false
				break
			}
		}
	}
	fanOut(env, t.Cohorts, tagPrepare)
}

// HandleMsg dispatches one delivered protocol envelope for this cohort:
// the cohort-side steps at its node, or its vote/ack into the
// coordinator's mailbox at the host. Host-bound deliveries release the
// attempt reference their envelope held; node-bound steps pass theirs
// down their continuation chain.
func (c *Cohort) HandleMsg(tag int) {
	switch tag {
	case tagPrepare:
		c.prepare()
	case tagCommit:
		c.commitAtNode()
	case tagAbort:
		c.abortAtNode()
	case tagVote:
		c.t.Mail.Send(&c.vote)
		c.t.env.Release()
	case tagAck:
		c.t.Mail.Send(&c.ack)
		c.t.env.Release()
	}
}

// prepare runs the cohort's local first phase at its node.
func (c *Cohort) prepare() {
	t := c.t
	env := t.env
	mgr := env.Manager(c.Meta.Node)
	if t.shortCircuit && c.ReadOnly {
		// The READ vote still runs the local first phase (OPT must
		// certify the reads) but skips the prepare-record force: a
		// cohort with nothing to redo or undo has nothing to log.
		if mgr.Prepare(c.Meta) {
			mgr.Commit(c.Meta)
			c.done = true
			env.CohortResolved(c, true)
			c.vote.Yes, c.vote.ReadOnly = true, true
			c.sendVote()
		} else {
			c.vote.Yes, c.vote.ReadOnly = false, false
			c.sendVote()
		}
		env.Release()
		return
	}
	if len(c.Deferred) > 0 {
		// [Care89]: deferred write permissions are requested only now,
		// in the first phase of the commit protocol; the node may
		// block before it can vote. The chain keeps this envelope's
		// attempt reference until deferredDone finishes.
		mgr.(cc.DeferredWriter).PrepareDeferred(c.Meta, c.Deferred, c.deferredFn)
		return
	}
	c.reply(mgr.Prepare(c.Meta))
	env.Release()
}

// deferredDone continues prepare once the deferred write permissions are
// resolved, then releases the prepare envelope's attempt reference.
func (c *Cohort) deferredDone(ok bool) {
	env := c.t.env
	c.reply(ok && env.Manager(c.Meta.Node).Prepare(c.Meta))
	env.Release()
}

// reply votes for the cohort, forcing the prepare record first on a YES
// vote when logging is modeled.
func (c *Cohort) reply(yes bool) {
	env := c.t.env
	c.vote.Yes, c.vote.ReadOnly = yes, false
	if yes && env.Logging() {
		// Force the cohort's prepare record before voting yes
		// (footnote 5: only log pages are forced pre-commit).
		env.Retain()
		env.ForceLogAsync(c.Meta.Node, false, c.voteForceFn)
		return
	}
	c.sendVote()
}

// votedAfterForce sends the YES vote once the prepare record is on disk,
// releasing the force chain's attempt reference.
func (c *Cohort) votedAfterForce() {
	c.sendVote()
	c.t.env.Release()
}

// sendVote ships the cohort's embedded vote to the coordinator. A
// non-read-only YES vote opens the cohort's in-doubt window: from here
// until the decision is applied at its node, a crash leaves the cohort's
// locks held hostage to the commit protocol's resolution rules.
func (c *Cohort) sendVote() {
	env := c.t.env
	if c.vote.Yes && !c.vote.ReadOnly {
		env.CohortInDoubt(c)
	}
	env.Retain()
	env.Send(c.Meta.Node, env.Host(), c, tagVote)
}

// commitAtNode runs phase two at the cohort's node: release locks, install
// the buffered updates, and acknowledge (CPU load only) where the variant
// requires it.
func (c *Cohort) commitAtNode() {
	t := c.t
	env := t.env
	env.Manager(c.Meta.Node).Commit(c.Meta)
	env.InstallCommit(c)
	env.CohortResolved(c, true)
	if t.tp.ackCommits {
		env.Send(c.Meta.Node, env.Host(), nil, 0)
	}
	env.Release()
}

// abortAtNode resolves the abort at the cohort's node: release locks,
// force the abort record first where the variant demands it, and
// acknowledge where required.
func (c *Cohort) abortAtNode() {
	t := c.t
	env := t.env
	env.Manager(c.Meta.Node).Abort(c.Meta)
	env.CohortResolved(c, false)
	if t.tp.ackAborts {
		if t.tp.abortForce && env.Logging() {
			env.Retain()
			env.ForceLogAsync(c.Meta.Node, true, c.ackForceFn)
		} else {
			c.sendAck()
		}
	}
	env.Release()
}

// ackAfterForce acknowledges the abort once the abort record is on disk,
// releasing the force chain's attempt reference.
func (c *Cohort) ackAfterForce() {
	c.sendAck()
	c.t.env.Release()
}

// sendAck ships the cohort's embedded abort ack to the coordinator.
func (c *Cohort) sendAck() {
	env := c.t.env
	env.Retain()
	env.Send(c.Meta.Node, env.Host(), c, tagAck)
}

// collectVotes consumes coordinator mail until every cohort has voted yes.
// It reports whether the collection is over — the mailbox may run dry
// first, and k then waits on it — and whether every vote was yes: the
// first no vote or abort signal ends it with no. Stale messages from the
// attempt's work phase are ignored.
func (tp *Protocol) collectVotes(k *sim.Cont, t *Txn) (over, yes bool) {
	for t.pending > 0 {
		msg, ok := t.Mail.Recv(k)
		if !ok {
			return false, false
		}
		switch v := msg.(type) {
		case *Vote:
			if !v.Yes {
				return true, false
			}
			t.pending--
		case *AbortSignal:
			return true, false
		}
	}
	return true, true
}

// decisionForce reports whether the commit decision needs a forced log
// record. Centralized 2PC always forces it; the presumed variants skip it
// for a fully read-only transaction — every cohort voted READ, so there is
// no phase two and nothing to recover.
func (tp *Protocol) decisionForce(t *Txn) bool {
	if !tp.shortCircuitRO {
		return true
	}
	for _, c := range t.Cohorts {
		if !c.done {
			return true
		}
	}
	return false
}

// Abort resolves the attempt as aborted: abort messages fan out to the
// loaded cohorts, and — for the acknowledged variants — the coordinator
// waits for every acknowledgement ("once the transaction manager has
// finished aborting the transaction", §3.3) before forgetting the attempt.
// Presumed abort skips the wait entirely; presumed commit additionally
// forces an abort record at each cohort before it acknowledges. Stale
// messages from the doomed attempt are drained and ignored.
//
// The wait is keyed by cohort (Ack.Idx), not by a raw count: crash
// handling can deliver a synthetic ack for a dead cohort whose real one is
// also still in flight, and the Idx accounting absorbs the duplicate
// instead of miscounting another cohort's ack. Unconsumed duplicates die
// with the attempt's mailbox reset.
func (tp *Protocol) Abort(k *sim.Cont, env Env, t *Txn, loaded int) Status {
	if t.step != stepAcks {
		t.env, t.tp = env, tp
		env.Decided(false)
		fanOut(env, t.Cohorts[:loaded], tagAbort)
		t.step, t.pending = stepAcks, 0
		if tp.ackAborts {
			for _, c := range t.Cohorts[:loaded] {
				if c.abortSent && !c.acked {
					t.pending++
				}
			}
		}
	}
	for t.pending > 0 {
		msg, ok := t.Mail.Recv(k)
		if !ok {
			return Waiting
		}
		if a, ok := msg.(*Ack); ok {
			if c := t.Cohorts[a.Idx]; !c.acked {
				c.acked = true
				t.pending--
			}
		}
	}
	t.Meta.State = cc.Finished
	return t.finish(Aborted)
}
