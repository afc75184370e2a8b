package core

import (
	"ddbm/internal/cc"
	"ddbm/internal/obs"
	"ddbm/internal/stats"
)

// breakdown is the machine's time-breakdown accounting state (nil unless
// Config.Breakdown): one ledger per terminal (a terminal runs one
// transaction at a time, so the ledger free-lists itself by reuse), the
// terminal→class map, per-class × per-phase histograms of committed
// transactions' phase totals, and per-node × per-cause counters of
// aborted attempts. Everything is allocated once at machine construction;
// steady-state recording is pure arithmetic on fixed arrays.
type breakdown struct {
	ledgers []obs.Ledger
	classOf []int
	// hists is indexed [class*NumPhases + phase]; counts are windowed to
	// the measurement interval like Commits/Aborts.
	hists []stats.LogHist
	// causes is indexed [node*NumCauses + cause] with the host as the
	// last node row; windowed to the measurement interval so the counter
	// total reconciles with Result.Aborts.
	causes   []int64
	numNodes int // processing nodes + host
}

// newBreakdown sizes the accounting state for the machine's dimensions.
func newBreakdown(numClasses, numNodes, numTerminals int) *breakdown {
	return &breakdown{
		ledgers:  make([]obs.Ledger, numTerminals),
		classOf:  make([]int, numTerminals),
		hists:    make([]stats.LogHist, numClasses*int(obs.NumPhases)),
		causes:   make([]int64, numNodes*int(cc.NumCauses)),
		numNodes: numNodes,
	}
}

// ledger returns terminal termID's ledger, or nil when accounting is off
// (every obs.Ledger method is nil-receiver-safe).
func (b *breakdown) ledger(termID int) *obs.Ledger {
	if b == nil {
		return nil
	}
	return &b.ledgers[termID]
}

// class returns terminal termID's class index (0 when accounting is off).
func (b *breakdown) class(termID int) int {
	if b == nil {
		return 0
	}
	return b.classOf[termID]
}

// noteCommit records a committed transaction's phase totals into its
// class's histograms. Windowed to the measurement interval alongside
// statsCollector.txnCommitted (same call site, same instant).
func (b *breakdown) noteCommit(class int, ld *obs.Ledger, measuring bool) {
	if b == nil || !measuring {
		return
	}
	base := class * int(obs.NumPhases)
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		b.hists[base+int(p)].Add(ld.Spent(p))
	}
}

// noteAbort counts one aborted attempt under its recorded cause and
// attributing node. Runs inside abortAttempt, the single funnel every
// abort resolves through, at the same instant statsCollector.txnAborted
// tallies the attempt — so summed cause counts equal Result.Aborts.
func (b *breakdown) noteAbort(meta *cc.TxnMeta, measuring bool) {
	if b == nil || !measuring {
		return
	}
	node := meta.AbortNode
	if node < 0 || node >= b.numNodes {
		node = b.numNodes - 1 // clamp to the host row
	}
	b.causes[node*int(cc.NumCauses)+int(meta.AbortCause)]++
}

// histAt returns the (class, phase) histogram.
func (b *breakdown) histAt(class int, p obs.Phase) *stats.LogHist {
	return &b.hists[class*int(obs.NumPhases)+int(p)]
}

// numClasses returns how many classes the histograms cover.
func (b *breakdown) numClasses() int { return len(b.hists) / int(obs.NumPhases) }

// snapshot renders the accounting state as the obs-layer snapshot rows,
// in fixed (class, phase) / (node, cause) order. Zero-count cause rows
// are omitted; phase rows are always emitted so decompositions have a
// complete, rectangular table.
func (b *breakdown) snapshot() *obs.BreakdownSnapshot {
	if b == nil {
		return nil
	}
	snap := &obs.BreakdownSnapshot{}
	for class := 0; class < b.numClasses(); class++ {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			h := b.histAt(class, p)
			snap.Phases = append(snap.Phases, obs.BreakdownPhaseRow{
				Class:   class,
				Phase:   p.String(),
				Count:   h.Count(),
				MeanMs:  h.Mean(),
				P50Ms:   h.Quantile(0.50),
				P99Ms:   h.Quantile(0.99),
				TotalMs: h.Sum(),
			})
		}
	}
	for node := 0; node < b.numNodes; node++ {
		for c := cc.Cause(0); c < cc.NumCauses; c++ {
			if n := b.causes[node*int(cc.NumCauses)+int(c)]; n > 0 {
				snap.Causes = append(snap.Causes, obs.BreakdownCauseRow{
					Node: node, Cause: c.String(), Count: n,
				})
			}
		}
	}
	return snap
}

// resultFields fills the Result's breakdown maps: per-phase mean and p99
// merged across classes, and abort counts summed across nodes by cause.
// The maps stay nil when accounting is off, keeping golden results
// bit-identical.
func (b *breakdown) resultFields(r *Result) {
	if b == nil {
		return
	}
	r.PhaseMeanMs = make(map[string]float64, int(obs.NumPhases))
	r.PhaseP99Ms = make(map[string]float64, int(obs.NumPhases))
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		var merged stats.LogHist
		for class := 0; class < b.numClasses(); class++ {
			merged.Merge(b.histAt(class, p))
		}
		r.PhaseMeanMs[p.String()] = merged.Mean()
		r.PhaseP99Ms[p.String()] = merged.Quantile(0.99)
	}
	r.AbortsByCause = make(map[string]int64)
	for node := 0; node < b.numNodes; node++ {
		for c := cc.Cause(0); c < cc.NumCauses; c++ {
			if n := b.causes[node*int(cc.NumCauses)+int(c)]; n > 0 {
				r.AbortsByCause[c.String()] += n
			}
		}
	}
}
