// Package obs is the simulator's observability layer: spans and instant
// events recorded in simulated time, periodic time-series probes, and
// exporters for Chrome trace-event JSON (Perfetto-loadable) and flat JSONL.
//
// The layer is strictly an observer. Nothing here touches the simulation's
// random source or schedules work on behalf of the model, so enabling a
// tracer leaves every run bit-identical to the untraced run (the periodic
// sampler is a sim process, but it only reads state — see TimeSeries).
//
// Spans are recorded whole, once they end: the caller keeps the start
// time (a plain sim.Time on its own pooled record) and passes it to
// Complete, or to the resource-specific recorders. There is no open-span
// handle, so nothing can outlive the span it names.
//
// Cost discipline, in the spirit of the allocation-free kernel:
//   - Disabled (nil *Tracer): every method is nil-receiver-safe and returns
//     immediately, so instrumented call sites compile to a pointer test.
//     AllocsPerRun pins in obs_test.go hold this at zero allocations.
//   - Enabled: events are stored as pointer-free records in fixed-size
//     chunks (see Log), so recording allocates one chunk per chunkLen
//     events, never copies an earlier record, and gives the garbage
//     collector nothing to scan.
package obs

import (
	"fmt"

	"ddbm/internal/sim"
)

// Kind classifies a recorded event. The taxonomy follows the model's
// layers: transaction attempts and cohort work phases (core), concurrency
// control waits (cc), commit-protocol phases (commit), message transits
// (network), and CPU/disk service periods (resource).
type Kind uint8

const (
	// KindTxn is one execution attempt of a transaction, spanning from
	// attempt start to commit or abort resolution at the coordinator.
	KindTxn Kind = iota
	// KindCohort is one cohort's work phase at its processing node.
	KindCohort
	// KindCCWait is one concurrency control blocking episode (a lock-queue
	// wait); immediate CC rejections (BTO read/write rule, wounds) surface
	// as KindInstant "cc-reject" events instead.
	KindCCWait
	// KindCommitPhase is one phase of the commit protocol: "prepare"
	// (start of phase one to all-votes-collected), "decide" (votes to
	// logged decision) or "resolve" (decision to all cohorts finished).
	KindCommitPhase
	// KindMessage is one inter-node message transit, from send to delivery
	// (both ends' message-processing CPU included).
	KindMessage
	// KindCPU is one CPU busy period (first job arrival to queue drain).
	KindCPU
	// KindDisk is one disk access service period on one spindle.
	KindDisk
	// KindInstant is a zero-duration life-cycle event (submitted,
	// committed, cc-reject, ...).
	KindInstant
	// KindFault is a fault-layer event: a node "crash" instant, a "down"
	// span (crash to repair), a "recovery" span (repair to rejoin) or an
	// "in-doubt" span (a cohort's prepared-to-resolved window). Appended
	// last so existing traces keep their kind numbering.
	KindFault
)

var kindNames = [...]string{
	KindTxn:         "txn",
	KindCohort:      "cohort",
	KindCCWait:      "cc-wait",
	KindCommitPhase: "commit-phase",
	KindMessage:     "message",
	KindCPU:         "cpu",
	KindDisk:        "disk",
	KindInstant:     "instant",
	KindFault:       "fault",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a kind name (as printed by String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// Name is the closed set of event names; call sites pass the code and
// the exporters print the string. The first six are the coordinator's
// transaction life-cycle instants, in life-cycle order ("attempt" also
// names the KindTxn span).
type Name uint8

const (
	NameSubmitted Name = iota // a terminal submitted a new transaction
	NameAttempt               // an execution attempt began (instant) or ran (span)
	NameAborted               // the attempt aborted; the detail holds the reason
	NameCommitted             // the commit decision was made (response complete)
	NamePrepared              // every cohort voted yes in commit phase one
	NameDecided               // the protocol resolved the attempt; detail commit or abort
	// Span names: cohort, cc-wait, the three commit phases, msg, cpu and
	// the two disk accesses.
	NameCohort
	NameCCWait
	NamePrepare
	NameDecide
	NameResolve
	NameMsg
	NameCPU
	NameRead
	NameWrite
	// An immediate CC rejection (instant).
	NameCCReject
	// Fault events: the crash instants, then the KindFault spans.
	NameCrash
	NameHostCrash
	NameDown
	NameRecovery
	NameInDoubt
	numNames
)

var nameStrings = [numNames]string{
	NameSubmitted: "submitted",
	NameAttempt:   "attempt",
	NameAborted:   "aborted",
	NameCommitted: "committed",
	NamePrepared:  "prepared",
	NameDecided:   "decided",
	NameCohort:    "cohort",
	NameCCWait:    "cc-wait",
	NamePrepare:   "prepare",
	NameDecide:    "decide",
	NameResolve:   "resolve",
	NameMsg:       "msg",
	NameCPU:       "cpu",
	NameRead:      "read",
	NameWrite:     "write",
	NameCCReject:  "cc-reject",
	NameCrash:     "crash",
	NameHostCrash: "host-crash",
	NameDown:      "down",
	NameRecovery:  "recovery",
	NameInDoubt:   "in-doubt",
}

func (n Name) String() string { return nameStrings[n] }

// Event is the decoded view of one recorded observation. Spans carry
// Start < End; instants have Start == End. Node is the node the event
// happened at; Lane disambiguates concurrent node-scoped activity (the
// spindle index for KindDisk, the destination node for KindMessage, 0
// otherwise). Txn and Attempt are 0 for node-scoped events (CPU, disk,
// message).
type Event struct {
	Kind    Kind
	Name    string
	Node    int
	Lane    int
	Txn     int64
	Attempt int
	Start   sim.Time
	End     sim.Time
	Detail  string
}

// Lifecycle reports whether e is one of the coordinator's transaction
// life-cycle instants (submitted, attempt, aborted, committed, prepared,
// decided).
func (e *Event) Lifecycle() bool {
	if e.Kind != KindInstant {
		return false
	}
	for n := NameSubmitted; n <= NameDecided; n++ {
		if nameStrings[n] == e.Name {
			return true
		}
	}
	return false
}

// record is the stored form of an Event: 40 bytes with no pointer field,
// so a chunk of them is a noscan allocation the garbage collector never
// reads. The detail is an index into the log's string table (0 = none).
type record struct {
	kind    Kind
	name    Name
	detail  uint16
	node    int32
	lane    int32
	attempt int32
	txn     int64
	start   sim.Time
	end     sim.Time
}

// chunkLen is the number of records per chunk (160 KB).
const chunkLen = 4096

type chunk [chunkLen]record

// Log is a tracer's recorded events, in recording order (which, for
// spans, is end-time order). Records go into fixed-size chunks that are
// made when the previous one fills and never move, so recording costs
// one allocation per chunkLen events and no copying. Detail strings are
// interned in a small per-log table. A nil *Log is empty.
type Log struct {
	chunks  []*chunk
	n       int
	details []string // detail code k > 0 is details[k-1]
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// At decodes the i-th recorded event. A message's "i to j" detail is
// left empty; the Chrome exporter builds it.
func (l *Log) At(i int) Event {
	if i < 0 || i >= l.Len() {
		panic(fmt.Sprintf("obs: event index %d out of range [0,%d)", i, l.Len()))
	}
	r := &l.chunks[i/chunkLen][i%chunkLen]
	return Event{
		Kind: r.kind, Name: r.name.String(), Node: int(r.node), Lane: int(r.lane),
		Txn: r.txn, Attempt: int(r.attempt), Start: r.start, End: r.end,
		Detail: l.detail(r.detail),
	}
}

// numChunks returns the number of chunks in use.
func (l *Log) numChunks() int {
	if l == nil {
		return 0
	}
	return len(l.chunks)
}

// segment returns the filled part of chunk c.
func (l *Log) segment(c int) []record {
	return l.chunks[c][:min(chunkLen, l.n-c*chunkLen)]
}

func (l *Log) detail(code uint16) string {
	if code == 0 {
		return ""
	}
	return l.details[code-1]
}

// add appends one record. Only the chunk directory (one pointer per
// chunk) is ever regrown; records stay where they were written.
func (l *Log) add(r record) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new(chunk)) //ddbmlint:allow hotpath-alloc one chunk per chunkLen traced events; the measured path has a nil tracer
	}
	l.chunks[len(l.chunks)-1][i] = r
	l.n++
}

// intern returns the detail code of s. Details are a handful of abort
// reasons and protocol outcomes, so a scan beats hashing; constant
// strings compare by pointer first.
func (l *Log) intern(s string) uint16 {
	if s == "" {
		return 0
	}
	for i, d := range l.details {
		if d == s {
			return uint16(i + 1)
		}
	}
	if len(l.details) == 1<<16-1 {
		panic("obs: more than 65535 distinct event details")
	}
	l.details = append(l.details, s) //ddbmlint:allow hotpath-alloc one entry per distinct detail string; the measured path has a nil tracer
	return uint16(len(l.details))
}

// Tracer records spans and instants against one simulation's clock. The
// zero-cost disabled state is a nil *Tracer: every method is
// nil-receiver-safe.
type Tracer struct {
	sim *sim.Sim
	log Log
}

// NewTracer creates a tracer bound to the simulation clock.
func NewTracer(s *sim.Sim) *Tracer {
	return &Tracer{sim: s}
}

// Events returns the recorded events. The log is the tracer's own: it
// keeps growing while the simulation runs.
func (t *Tracer) Events() *Log {
	if t == nil {
		return nil
	}
	return &t.log
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.log.n
}

// Complete records a span from start to the current simulated time. The
// caller keeps the start (a blocking episode observed at wakeup, a
// protocol phase boundary, an attempt's start on its pooled record).
func (t *Tracer) Complete(kind Kind, name Name, node int, txn int64, attempt int, start sim.Time) {
	if t == nil {
		return
	}
	t.log.add(record{kind: kind, name: name, node: int32(node), txn: txn, attempt: int32(attempt), start: start, end: t.sim.Now()})
}

// Instant records a zero-duration event at the current simulated time.
// The recording half is a separate call so that this nil test inlines at
// the call site.
func (t *Tracer) Instant(name Name, node int, txn int64, attempt int, detail string) {
	if t == nil {
		return
	}
	t.instant(name, node, txn, attempt, detail)
}

func (t *Tracer) instant(name Name, node int, txn int64, attempt int, detail string) {
	now := t.sim.Now()
	t.log.add(record{kind: KindInstant, name: name, node: int32(node), txn: txn, attempt: int32(attempt),
		start: now, end: now, detail: t.log.intern(detail)})
}

// Message records one message transit from node `from` to node `to`,
// begun at start and delivered now.
func (t *Tracer) Message(from, to int, start sim.Time) {
	if t == nil {
		return
	}
	t.log.add(record{kind: KindMessage, name: NameMsg, node: int32(from), lane: int32(to), start: start, end: t.sim.Now()})
}

// CPUBusy records one CPU busy period at node, begun at start and drained
// now. Busy periods on one CPU are serial by construction, so they form a
// properly nesting (flat) track.
func (t *Tracer) CPUBusy(node int, start sim.Time) {
	if t == nil {
		return
	}
	t.log.add(record{kind: KindCPU, name: NameCPU, node: int32(node), start: start, end: t.sim.Now()})
}

// DiskAccess records one disk service period on the given spindle of
// node's disk array. Accesses on one spindle are serial.
func (t *Tracer) DiskAccess(node, spindle int, write bool, start sim.Time) {
	if t == nil {
		return
	}
	name := NameRead
	if write {
		name = NameWrite
	}
	t.log.add(record{kind: KindDisk, name: name, node: int32(node), lane: int32(spindle), start: start, end: t.sim.Now()})
}
