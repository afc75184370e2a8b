package core

import (
	"ddbm/internal/sim"
	"ddbm/internal/stats"
)

// statsCollector accumulates the paper's performance metrics. Counting
// starts only after the warmup boundary; the running average response time
// (used for restart delays) covers the whole run.
type statsCollector struct {
	measuring  bool
	measureAt  sim.Time
	commits    int64
	aborts     int64
	resp       stats.Welford
	respAll    []float64 // every post-warmup response, for percentiles
	respBatch  *stats.BatchMeans
	restarts   stats.Welford
	block      stats.Welford
	active     stats.TimeWeighted
	runningAvg stats.Welford // all commits, incl. warmup (restart delay)
}

// maxRespSamples caps the per-response sample buffer backing the
// percentile metrics: a marathon run stops collecting individual samples
// past this point (the percentiles then describe the first maxRespSamples
// post-warmup commits) instead of holding every response in an
// ever-reallocating slice. At 8 bytes a sample the cap bounds the buffer
// at 8 MiB.
const maxRespSamples = 1 << 20

// newStatsCollector sizes the sample buffer from the expected number of
// post-warmup commits so steady-state runs never reallocate it.
func newStatsCollector(expectedCommits int) *statsCollector {
	hint := expectedCommits
	if hint < 256 {
		hint = 256
	}
	if hint > maxRespSamples {
		hint = maxRespSamples
	}
	return &statsCollector{
		respAll:   make([]float64, 0, hint),
		respBatch: stats.NewBatchMeans(50),
	}
}

// startMeasuring marks the warmup boundary.
func (s *statsCollector) startMeasuring(now sim.Time) {
	s.measuring = true
	s.measureAt = now
	s.active.ResetAt(now)
}

func (s *statsCollector) txnStarted(now sim.Time) {
	s.active.Set(now, s.active.Value()+1)
}

func (s *statsCollector) txnCommitted(now sim.Time, responseMs float64, restarts int) {
	s.active.Set(now, s.active.Value()-1)
	s.runningAvg.Add(responseMs)
	if !s.measuring {
		return
	}
	s.commits++
	s.resp.Add(responseMs)
	if len(s.respAll) < maxRespSamples {
		s.respAll = append(s.respAll, responseMs)
	}
	s.respBatch.Add(responseMs)
	s.restarts.Add(float64(restarts))
}

func (s *statsCollector) txnAborted() {
	if s.measuring {
		s.aborts++
	}
}

func (s *statsCollector) blocked(d sim.Time) {
	if s.measuring && d > 0 {
		s.block.Add(d)
	}
}

// avgResponse is the restart delay: the running average response time
// observed at the coordinator node, or def before the first commit.
func (s *statsCollector) avgResponse(def float64) float64 {
	if s.runningAvg.Count() == 0 {
		return def
	}
	return s.runningAvg.Mean()
}

// Result reports the outcome of one simulation run.
type Result struct {
	// Config echoes the run's configuration.
	Config Config

	// MeasuredMs is the length of the measurement window (after warmup).
	MeasuredMs float64
	// Commits and Aborts count transaction commits and aborted execution
	// attempts inside the measurement window.
	Commits int64
	Aborts  int64
	// ThroughputTPS is commits per second of simulated time.
	ThroughputTPS float64
	// MeanResponseMs is the mean transaction response time (origination to
	// successful completion, including restarts); RespHalfWidth95 is the
	// batch-means 95% confidence half-width, RespStdDev and MaxResponseMs
	// describe the distribution.
	MeanResponseMs  float64
	RespHalfWidth95 float64
	RespStdDev      float64
	MaxResponseMs   float64
	// RespP50Ms, RespP90Ms and RespP99Ms are response-time percentiles
	// (0 when nothing committed in the measurement window; computed over
	// at most the first maxRespSamples post-warmup commits).
	RespP50Ms float64
	RespP90Ms float64
	RespP99Ms float64
	// AbortRatio is aborts per commit (the paper's abort ratio).
	AbortRatio float64
	// MeanRestarts is the average number of restarts per committed
	// transaction.
	MeanRestarts float64
	// MeanBlockMs is the average duration of one blocking episode in the
	// concurrency control manager (the paper's 2PL blocking-time metric);
	// BlockCount is how many episodes occurred.
	MeanBlockMs float64
	BlockCount  int64
	// ProcCPUUtil / ProcDiskUtil average utilization across processing
	// nodes; HostCPUUtil is the host's CPU utilization.
	ProcCPUUtil  float64
	ProcDiskUtil float64
	HostCPUUtil  float64
	// PerNodeCPUUtil and PerNodeDiskUtil give the per-processing-node
	// detail.
	PerNodeCPUUtil  []float64
	PerNodeDiskUtil []float64
	// MessagesSent counts inter-node messages over the whole run.
	MessagesSent int64
	// LogForces counts modeled forced log writes over the whole run (0
	// unless Config.ModelLogging); AbortPathLogForces is the subset forced
	// while aborting attempts (presumed commit's abort-record forces —
	// zero for centralized 2PC and presumed abort).
	LogForces          int64
	AbortPathLogForces int64
	// AvgActiveTxns is the time-average number of in-flight transactions.
	AvgActiveTxns float64

	// Fault/recovery metrics, all zero unless Config.Faults.Enabled.
	// Crashes counts node and host crashes over the whole run;
	// MessagesLost counts handler messages discarded at down nodes.
	// Availability is the fraction of node-milliseconds the processing
	// nodes were up; GoodputPerSec normalizes throughput by it (commits
	// per second of available machine time). InDoubtTimeMs totals the
	// in-doubt windows (a cohort's vote to its learned outcome) closed
	// inside the measurement window, InDoubtWindows counts them, and
	// BlockedInDoubtMs totals blocking time spent waiting on locks held
	// by in-doubt cohorts of crashed nodes — the 2PC blocking penalty
	// that presumed-abort resolution avoids. RecoveryTimeMs totals
	// repair-to-rejoin time (log replay plus in-doubt resolution) over
	// the whole run.
	Crashes          int64
	MessagesLost     int64
	Availability     float64
	GoodputPerSec    float64
	InDoubtTimeMs    float64
	InDoubtWindows   int64
	BlockedInDoubtMs float64
	RecoveryTimeMs   float64

	// PhaseMeanMs and PhaseP99Ms report the time-breakdown accounting
	// (nil unless Config.Breakdown): per-phase mean and p99 milliseconds
	// per committed transaction, keyed by phase name (see obs.Phase),
	// merged across classes. The phase means sum to MeanResponseMs (the
	// reconciliation invariant); p99 values are deterministic log2-bucket
	// upper bounds. AbortsByCause counts aborted attempts by cause name
	// (see cc.Cause), summing to Aborts; zero-count causes are omitted.
	PhaseMeanMs   map[string]float64
	PhaseP99Ms    map[string]float64
	AbortsByCause map[string]int64

	// AuditedTxns counts the committed transactions checked by the
	// serializability auditor (0 when Config.Audit is off) and
	// AuditViolations lists any anomalies it found, rendered as strings.
	// For the strict locking algorithms and BTO this must be empty; the
	// paper-faithful OPT certification has a known certify/commit window
	// that the auditor can expose (closed by Config.StrictOPT).
	AuditedTxns     int64
	AuditViolations []string
}
