// Package ddbm is a discrete-event simulation study of concurrency control
// performance in distributed ("shared nothing") database machines — a full
// reproduction of Carey & Livny, "Parallelism and Concurrency Control
// Performance in Distributed Database Machines", ACM SIGMOD 1989.
//
// The model: transactions originate at terminals attached to a host node;
// each gets a coordinator process at the host and one cohort process at
// every processing node storing data it touches. Cohorts run sequentially
// or in parallel and finish through a centralized two-phase commit. Four
// concurrency control algorithms are provided — two-phase locking (with a
// rotating "Snoop" global deadlock detector), wound-wait, basic timestamp
// ordering, and optimistic certification — plus the NO_DC no-contention
// baseline.
//
// Quick start:
//
//	cfg := ddbm.DefaultConfig()
//	cfg.Algorithm = ddbm.TwoPL
//	cfg.ThinkTimeMs = 8000
//	res, err := ddbm.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("%.1f tps, %.0f ms response\n", res.ThroughputTPS, res.MeanResponseMs)
//
// The experiments package regenerates every figure of the paper's
// evaluation section on top of this API.
package ddbm

import (
	"io"

	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/core"
	"ddbm/internal/obs"
)

// Algorithm identifies a concurrency control algorithm.
type Algorithm = cc.Kind

// The four algorithms of the paper plus the no-data-contention baseline.
const (
	// TwoPL is distributed two-phase locking (paper §2.2).
	TwoPL = cc.TwoPL
	// WoundWait is the wound-wait locking algorithm (paper §2.3).
	WoundWait = cc.WoundWait
	// BTO is basic timestamp ordering (paper §2.4).
	BTO = cc.BTO
	// OPT is distributed optimistic certification (paper §2.5).
	OPT = cc.OPT
	// NoDC is the "no data contention" baseline (paper §4.2).
	NoDC = cc.NoDC
	// O2PL is optimistic two-phase locking ([Care88]): read locks at access
	// time, write locks deferred to the first commit phase. The paper's
	// simulator carried it (Table 4 note) without presenting results.
	O2PL = cc.O2PL
)

// Algorithms lists the algorithms in the paper's presentation order
// (2PL, BTO, WW, OPT, NO_DC).
func Algorithms() []Algorithm { return cc.Kinds() }

// ParseAlgorithm converts a name ("2PL", "WW", "BTO", "OPT", "NO_DC") to an
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return cc.ParseKind(s) }

// CommitProtocol identifies a two-phase commit variant; set
// Config.CommitProtocol to choose one.
type CommitProtocol = commit.Kind

// The commit protocol variants.
const (
	// CentralizedTwoPC is the paper's centralized two-phase commit (§2.1,
	// §3.3): decisions and aborts are both acknowledged, and every cohort
	// forces a prepare record when logging is modeled. The default.
	CentralizedTwoPC = commit.CentralizedTwoPC
	// PresumedAbort is R*'s presumed-abort 2PC: unacknowledged, force-free
	// aborts and a read-only vote short-circuit.
	PresumedAbort = commit.PresumedAbort
	// PresumedCommit is R*'s presumed-commit 2PC: unacknowledged COMMIT
	// messages at the price of a forced collecting record per transaction
	// and forced, acknowledged abort records.
	PresumedCommit = commit.PresumedCommit
)

// CommitProtocols lists the protocol variants, default first.
func CommitProtocols() []CommitProtocol { return commit.Kinds() }

// ParseCommitProtocol converts a name ("2PC", "PA", "PC") to a
// CommitProtocol.
func ParseCommitProtocol(s string) (CommitProtocol, error) { return commit.ParseKind(s) }

// ExecPattern selects sequential or parallel cohort execution (paper §3.3).
type ExecPattern = core.ExecPattern

// Execution patterns.
const (
	// Parallel starts all cohorts together (Gamma/Teradata/Bubba style).
	Parallel = core.Parallel
	// Sequential runs cohorts one after another (Non-Stop SQL style).
	Sequential = core.Sequential
)

// Config collects every model parameter; see core.Config for field
// documentation and DefaultConfig for the paper's Table 4 settings.
type Config = core.Config

// TxnClass describes one transaction class of a multi-class workload
// (paper Table 2); set Config.Classes to use it.
type TxnClass = core.TxnClass

// Result reports the metrics of one simulation run.
type Result = core.Result

// DefaultConfig returns the paper's baseline parameter settings (Table 4).
func DefaultConfig() Config { return core.DefaultConfig() }

// Run simulates one machine configuration and returns its metrics.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// Machine is an assembled database machine; use it instead of Run when you
// need to enable tracing or probes before running, or read the trace,
// probes or breakdown snapshot after.
type Machine = core.Machine

// NewMachine builds (but does not run) a machine, for callers that attach
// a tracer or probes; call its Run method to simulate.
func NewMachine(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }

// Tracer records spans and instant events in simulated time; obtain one
// with Machine.EnableTracing before Run. A nil tracer is the disabled
// state and costs nothing on the simulation's hot paths.
type Tracer = obs.Tracer

// TraceLog is a tracer's recorded events (Tracer.Events); At decodes one.
type TraceLog = obs.Log

// TraceEvent is one recorded observation (a span or an instant), as
// TraceLog.At decodes it.
type TraceEvent = obs.Event

// TimeSeries holds the periodic probe samples of per-node gauges; obtain
// one with Machine.EnableProbes before Run.
type TimeSeries = obs.TimeSeries

// WriteChromeTrace renders trace events as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing); host is the host node's id.
func WriteChromeTrace(w io.Writer, events *TraceLog, host int) error {
	return obs.WriteChromeTrace(w, events, host)
}

// WriteTraceJSONL renders trace events as a flat JSONL stream.
func WriteTraceJSONL(w io.Writer, events *TraceLog) error {
	return obs.WriteJSONL(w, events)
}

// ReadTraceJSONL decodes a WriteTraceJSONL stream.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) { return obs.ReadJSONL(r) }

// CheckChromeTrace structurally validates WriteChromeTrace output (JSON
// parses, spans nest, cohort/commit-phase spans sit under their attempt).
func CheckChromeTrace(data []byte) error { return obs.CheckChromeTrace(data) }

// PhaseNames returns the breakdown phase names in canonical ledger order
// — the key set of Result.PhaseMeanMs and Result.PhaseP99Ms.
func PhaseNames() []string { return obs.PhaseNames() }

// BreakdownSnapshot is the detailed time-breakdown accounting a run with
// Config.Breakdown collects: per-class × per-phase response-time rows and
// per-node × per-cause abort counts. Obtain one with Machine.Breakdown
// after Run; the aggregate view is on Result (PhaseMeanMs, PhaseP99Ms,
// AbortsByCause).
type BreakdownSnapshot = obs.BreakdownSnapshot

// WriteBreakdownJSONL renders a breakdown snapshot as a JSONL stream
// (one phase or abort-cause row per line, tagged by a "row" field).
func WriteBreakdownJSONL(w io.Writer, snap *BreakdownSnapshot) error {
	return obs.WriteBreakdownJSONL(w, snap)
}

// WriteBreakdownCSV renders a breakdown snapshot as a single CSV table.
func WriteBreakdownCSV(w io.Writer, snap *BreakdownSnapshot) error {
	return obs.WriteBreakdownCSV(w, snap)
}
