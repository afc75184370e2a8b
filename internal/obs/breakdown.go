package obs

import (
	"fmt"

	"ddbm/internal/sim"
)

// Phase classifies one slice of a transaction's wall-clock life in the
// time-breakdown accounting. The set is closed and exhaustive: a ledger
// attributes every simulated microsecond between transaction origination
// and successful commit to exactly one phase, so the per-phase totals of a
// committed transaction sum to its measured response time (the
// reconciliation invariant pinned by core's breakdown tests).
type Phase uint8

const (
	// PhaseCPUService is pure CPU demand at full rate (instructions /
	// rate): startup bursts, CC-request processing, page processing.
	PhaseCPUService Phase = iota
	// PhaseCPUQueue is the excess of elapsed CPU time over pure demand —
	// processor-sharing dilation and message-priority preemption.
	PhaseCPUQueue
	// PhaseDiskService is the drawn service time of synchronous page
	// reads; PhaseDiskQueue is the wait behind other requests on the
	// spindle.
	PhaseDiskService
	PhaseDiskQueue
	// PhaseLockBlocked is time spent inside a concurrency control Access
	// call — lock-queue waits (2PL/WW) and BTO blocked reads.
	PhaseLockBlocked
	// PhaseNetTransit is message transit between nodes, including the
	// message-processing CPU at both ends (matching KindMessage spans).
	PhaseNetTransit
	// PhasePrepare, PhaseDecide and PhaseResolve split the commit
	// protocol: protocol entry to all-votes-collected, votes to the
	// logged decision, and decision to protocol return (ack collection
	// on the abort path; ~0 on commit, whose phase two is asynchronous).
	PhasePrepare
	PhaseDecide
	PhaseResolve
	// PhaseRestart is the post-abort restart backoff delay.
	PhaseRestart
	// PhaseResidue absorbs coordinator wall-clock not attributable to a
	// cohort's own ledger: the slack behind the critical (last-reporting)
	// cohort of a parallel attempt, and abort-path windows where the
	// reporting cohort's ledger is unavailable. Think time is outside the
	// transaction and never enters a ledger.
	PhaseResidue

	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseCPUService:  "cpu-service",
	PhaseCPUQueue:    "cpu-queue",
	PhaseDiskService: "disk-service",
	PhaseDiskQueue:   "disk-queue",
	PhaseLockBlocked: "lock-blocked",
	PhaseNetTransit:  "net-transit",
	PhasePrepare:     "commit-prepare",
	PhaseDecide:      "commit-decide",
	PhaseResolve:     "commit-resolve",
	PhaseRestart:     "restart-wait",
	PhaseResidue:     "residue",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// PhaseNames returns every phase name in canonical ledger order — the key
// set of the per-phase result maps, in the order reports should list them.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		out[p] = p.String()
	}
	return out
}

// Ledger is a cursor-based per-transaction phase account. Spend-style
// calls attribute the interval since the cursor to one phase and advance
// the cursor, so the phase totals telescope: after any call sequence the
// sum of all phases equals the span from StartAt to the last call. The
// zero value is usable; a nil *Ledger is the disabled state — every
// method is nil-receiver-safe and free of allocation, randomness and
// scheduling, so instrumented call sites cost a pointer test when
// breakdown accounting is off and leave runs bit-identical either way.
type Ledger struct {
	cursor sim.Time
	spent  [NumPhases]float64
}

// StartAt zeroes the ledger and places the cursor at now.
func (l *Ledger) StartAt(now sim.Time) {
	if l == nil {
		return
	}
	*l = Ledger{cursor: now}
}

// Spend attributes the interval since the cursor to phase p.
func (l *Ledger) Spend(now sim.Time, p Phase) {
	if l == nil {
		return
	}
	l.spent[p] += now - l.cursor
	l.cursor = now
}

// SpendSplit attributes the interval since the cursor to a service phase
// (up to svc, the pure service demand) and a queueing phase (the excess).
// svc is clamped to the elapsed interval so float drift cannot drive the
// queue share negative.
func (l *Ledger) SpendSplit(now sim.Time, svc float64, service, queue Phase) {
	if l == nil {
		return
	}
	elapsed := now - l.cursor
	if svc > elapsed {
		svc = elapsed
	}
	if svc < 0 {
		svc = 0
	}
	l.spent[service] += svc
	l.spent[queue] += elapsed - svc
	l.cursor = now
}

// Fold merges a sub-ledger (a cohort's mini-account) into this ledger,
// attributing the interval since the cursor as the sub-ledger's phases
// plus a residue remainder. The total added is exactly the elapsed
// interval, preserving the telescoping invariant; when the sub-ledger
// tiles the interval exactly (the critical cohort of an attempt), the
// residue contribution is zero. A nil from sweeps the whole interval
// into the residue phase.
func (l *Ledger) Fold(now sim.Time, from *Ledger, residue Phase) {
	if l == nil {
		return
	}
	elapsed := now - l.cursor
	var sub float64
	if from != nil {
		for i := range from.spent {
			l.spent[i] += from.spent[i]
			sub += from.spent[i]
		}
	}
	l.spent[residue] += elapsed - sub
	l.cursor = now
}

// Spent returns the milliseconds attributed to phase p.
func (l *Ledger) Spent(p Phase) float64 {
	if l == nil {
		return 0
	}
	return l.spent[p]
}

// Total returns the milliseconds attributed across all phases.
func (l *Ledger) Total() float64 {
	if l == nil {
		return 0
	}
	var t float64
	for i := range l.spent {
		t += l.spent[i]
	}
	return t
}
