package core

import (
	"fmt"
	"slices"

	"ddbm/internal/audit"
	"ddbm/internal/cc"
	"ddbm/internal/cc/bto"
	"ddbm/internal/cc/nodc"
	"ddbm/internal/cc/opt"
	"ddbm/internal/cc/twopl"
	"ddbm/internal/cc/ww"
	"ddbm/internal/commit"
	"ddbm/internal/db"
	"ddbm/internal/network"
	"ddbm/internal/obs"
	"ddbm/internal/resource"
	"ddbm/internal/sim"
	"ddbm/internal/workload"
)

// Machine is one assembled database machine: the host node, the processing
// nodes with their resources and concurrency control managers, the network,
// the workload source, and the metrics collector.
type Machine struct {
	cfg       Config
	sim       *sim.Sim
	cat       *db.Catalog
	cpus      []*resource.CPU       // index 0..P-1: processing nodes; index P: host
	disks     []*resource.DiskArray // processing nodes only
	hostDisks *resource.DiskArray   // host node (commit-record forces)
	net       *network.Network
	mgrs      []cc.Manager
	algo      cc.Algorithm
	proto     *commit.Protocol
	gen       *workload.Generator
	stats     *statsCollector
	rec       *audit.Recorder // non-nil when cfg.Audit

	// Observability (all nil/zero unless explicitly enabled; the disabled
	// state is the existing fast path). activeCohorts is allocated — and
	// maintained by the cohort processes — only while probing is on.
	// probeK is the sampler process; probeArmed marks its first interval
	// scheduled.
	tracer        *obs.Tracer
	probes        *obs.TimeSeries
	probeEveryMs  float64
	probeK        sim.Cont
	probeArmed    bool
	activeCohorts []int     // per processing node
	prevCPUBusy   []float64 // sampler window state: last BusyTime() per CPU
	prevDiskBusy  []float64 // ... per disk array (proc nodes, then host)
	// bd is the time-breakdown accounting state (nil unless
	// cfg.Breakdown); bdCheck is a test seam invoked at every commit with
	// the transaction's ledger and measured response time (reconciliation
	// property tests).
	bd      *breakdown
	bdCheck func(ld *obs.Ledger, respMs float64)

	hostID     int
	tsCounter  int64
	txnCounter int64

	// Transaction-path processes, pools and pre-bound hooks (see txn.go):
	// the terminals, recycled attempt states, and the per-node phase-two
	// write-back continuations. All bound once so the steady-state
	// transaction path allocates nothing.
	terms        []terminal
	attemptFree  []*attemptState
	writeBackFns []func()
	// deferredCap is the capacity each pooled cohort run's Deferred buffer
	// gets under the deferred-lock variants (O2PL, DeferRemoteWriteLocks):
	// every access a cohort can be planned with. 0 otherwise.
	deferredCap int

	// ft is the fault/recovery state (nil unless cfg.Faults.Enabled; the
	// nil state is the existing fault-free fast path).
	ft *faultState

	// logForces counts modeled log forces over the whole run;
	// abortLogForces is the subset attributed to abort handling.
	logForces      int64
	abortLogForces int64
}

// NewMachine builds (but does not run) a machine from the configuration.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var cat *db.Catalog
	var err error
	if cfg.PartitionWays == 0 {
		cat, err = db.PlaceScaled(cfg.NumRelations, cfg.PartsPerRelation, cfg.PagesPerFile, cfg.NumProcNodes)
	} else {
		cat, err = db.PlacePartitioned(cfg.NumRelations, cfg.PartsPerRelation, cfg.PagesPerFile,
			cfg.NumProcNodes, cfg.PartitionWays)
	}
	if err != nil {
		return nil, err
	}
	if cfg.ReplicaCount > 1 {
		if err := cat.Replicate(cfg.ReplicaCount, cfg.NumProcNodes); err != nil {
			return nil, err
		}
	}
	if err := cat.Validate(cfg.NumProcNodes); err != nil {
		return nil, err
	}

	proto, err := commit.New(cfg.CommitProtocol)
	if err != nil {
		return nil, err
	}

	s := sim.New(cfg.Seed)
	m := &Machine{
		cfg:    cfg,
		sim:    s,
		cat:    cat,
		proto:  proto,
		hostID: cfg.NumProcNodes,
		stats:  newStatsCollector(expectedCommits(&cfg)),
	}
	if cfg.Audit {
		m.rec = audit.NewRecorder()
	}
	for i := 0; i < cfg.NumProcNodes; i++ {
		m.cpus = append(m.cpus, resource.NewCPU(s, cfg.ProcMIPS))
		d := resource.NewDiskArray(s, cfg.NumDisks, cfg.MinDiskMs, cfg.MaxDiskMs)
		m.disks = append(m.disks, d)
		m.writeBackFns = append(m.writeBackFns, func() { d.WriteAsync(nil) })
	}
	m.cpus = append(m.cpus, resource.NewCPU(s, cfg.HostMIPS)) // host
	m.hostDisks = resource.NewDiskArray(s, cfg.NumDisks, cfg.MinDiskMs, cfg.MaxDiskMs)
	m.net = network.New(s, m.cpus, cfg.InstPerMsg)

	spread := workload.SpreadHalfToThreeHalves
	if cfg.SpreadHalfToTwice {
		spread = workload.SpreadHalfToTwice
	}
	m.gen = &workload.Generator{
		Catalog:     cat,
		AvgPages:    cfg.AvgPagesPerPartition,
		WriteProb:   cfg.WriteProb,
		InstPerPage: cfg.InstPerPage,
		Spread:      spread,
	}
	for _, cl := range cfg.Classes {
		m.gen.Classes = append(m.gen.Classes, workload.Class{
			Frac:        cl.Frac,
			Sequential:  cl.Sequential,
			FileCount:   cl.FileCount,
			AvgPages:    cl.AvgPagesPerPartition,
			WriteProb:   cl.WriteProb,
			InstPerPage: cl.InstPerPage,
		})
	}
	if err := m.gen.Validate(); err != nil {
		return nil, err
	}
	if cfg.Breakdown {
		// Per-terminal ledgers, per-class × per-phase histograms and
		// per-node abort-cause counters, all fixed-size: the steady-state
		// accounting allocates nothing. The host gets the last cause row.
		m.bd = newBreakdown(m.gen.NumClasses(), cfg.NumProcNodes+1, cfg.NumTerminals)
		for t := 0; t < cfg.NumTerminals; t++ {
			m.bd.classOf[t] = m.gen.ClassIndexOfTerminal(t, cfg.NumTerminals)
		}
	}

	// Pre-size the transaction path from the machine's concurrency bounds
	// so steady state is allocation-free outright rather than after every
	// pool's high-water record has been set (records thin out as 1/t, so a
	// warmup can shrink but never deterministically retire them). None of
	// the Reserve calls draws randomness or schedules events: runs are
	// bit-identical with or without them.
	//
	// At most NumTerminals transaction attempts exist at once; a restarting
	// terminal can briefly pin a second plan through in-flight messages.
	// The CPU job and disk backlog bounds are generous multiples rather
	// than hard invariants — queues are open, bounded only by service-rate
	// stability — chosen far above any backlog a saturated configuration
	// reaches.
	m.gen.Reserve(2 * cfg.NumTerminals)
	m.net.Reserve(8 * cfg.NumTerminals)
	for _, c := range m.cpus {
		c.Reserve(8 * cfg.NumTerminals)
	}
	for _, d := range m.disks {
		d.Reserve(16 * cfg.NumTerminals)
	}
	m.hostDisks.Reserve(16 * cfg.NumTerminals)

	switch cfg.Algorithm {
	case cc.TwoPL:
		if cfg.LockWaitTimeoutMs > 0 {
			m.algo = twopl.NewWithTimeout(cfg.LockWaitTimeoutMs)
		} else {
			m.algo = twopl.New(cfg.DetectionIntervalMs)
		}
	case cc.O2PL:
		if cfg.LockWaitTimeoutMs > 0 {
			a := twopl.NewWithTimeout(cfg.LockWaitTimeoutMs)
			a.Optimistic = true
			m.algo = a
		} else {
			m.algo = twopl.NewO2PL(cfg.DetectionIntervalMs)
		}
	case cc.WoundWait:
		m.algo = ww.New()
	case cc.BTO:
		m.algo = bto.New()
	case cc.OPT:
		m.algo = &opt.Algorithm{Strict: cfg.StrictOPT}
	case cc.NoDC:
		m.algo = nodc.New()
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", cfg.Algorithm)
	}
	if cfg.Algorithm == cc.O2PL || cfg.DeferRemoteWriteLocks {
		m.deferredCap = m.gen.MaxAccessesPerCohort()
	}
	if a, ok := m.algo.(*twopl.Algorithm); ok {
		a.MaxTxns = cfg.NumTerminals
		a.MaxLocksPerCohort = m.gen.MaxAccessesPerCohort()
	}
	for i := 0; i < cfg.NumProcNodes; i++ {
		m.mgrs = append(m.mgrs, m.algo.NewManager(cc.Env{Sim: s, Node: i}))
	}
	if cfg.Faults.Enabled {
		m.ft = newFaultState(m)
	}
	return m, nil
}

// onBlocked tallies every blocking episode (see cohortRun.blocked), plus —
// when the fault layer is active and the lock table attributed the wait
// to an in-doubt cohort of a crashed node — the blocked-in-doubt account.
//
//ddbmlint:hotpath blocking-episode tally on every lock wait
func (m *Machine) onBlocked(co *cc.CohortMeta, d sim.Time) {
	m.stats.blocked(d)
	if m.ft != nil && co.BlockedInDoubt {
		co.BlockedInDoubt = false
		m.ft.noteInDoubtBlock(d)
	}
}

// Sim exposes the simulator (tests and extensions).
func (m *Machine) Sim() *sim.Sim { return m.sim }

// Catalog exposes the database catalog.
func (m *Machine) Catalog() *db.Catalog { return m.cat }

// Manager returns the concurrency control manager of a processing node.
func (m *Machine) Manager(node int) cc.Manager { return m.mgrs[node] }

// EnableTracing attaches an observability tracer to every layer of the
// machine (transaction life cycle, cohorts, CC waits, commit phases,
// messages, CPU and disk service) and returns it. Must be called before
// Start/Run; idempotent. Tracing is observation only: the traced run is
// bit-identical to the untraced run.
func (m *Machine) EnableTracing() *obs.Tracer {
	if m.tracer == nil {
		tr := obs.NewTracer(m.sim)
		m.tracer = tr
		m.net.SetTracer(tr)
		for i, c := range m.cpus {
			c.SetTrace(tr, i)
		}
		for i, d := range m.disks {
			d.SetTrace(tr, i)
		}
		m.hostDisks.SetTrace(tr, m.hostID)
	}
	return m.tracer
}

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// EnableProbes installs the periodic gauge sampler, snapshotting per-node
// gauges every intervalMs of simulated time into the returned TimeSeries.
// Must be called before Start/Run. The sampler is a deterministic sim
// process that only reads state (see obs.TimeSeries), so probed runs stay
// bit-identical to unprobed ones.
func (m *Machine) EnableProbes(intervalMs float64) *obs.TimeSeries {
	if intervalMs <= 0 {
		panic("core: probe interval must be positive")
	}
	nodes := m.cfg.NumProcNodes + 1
	m.probes = obs.NewTimeSeries(intervalMs, nodes, int(m.cfg.SimTimeMs/intervalMs)+1)
	m.probeEveryMs = intervalMs
	m.activeCohorts = make([]int, m.cfg.NumProcNodes)
	m.prevCPUBusy = make([]float64, len(m.cpus))
	m.prevDiskBusy = make([]float64, nodes)
	return m.probes
}

// TimeSeries returns the probe samples, or nil when probing is disabled.
func (m *Machine) TimeSeries() *obs.TimeSeries { return m.probes }

// Breakdown returns the run's aggregated time-breakdown snapshot
// (per-class phase distributions and per-node abort-cause counts), or
// nil when Config.Breakdown is off. Call after Run.
func (m *Machine) Breakdown() *obs.BreakdownSnapshot { return m.bd.snapshot() }

// ccGauges is the optional interface a CC manager implements to expose its
// table size and blocked-cohort count to the probe sampler; managers
// without local state (no-DC) simply report zeros.
type ccGauges interface {
	TableSize() int
	BlockedCount() int
}

// probe is the sampler process's step: one snapshot per interval, the
// first one interval after the process starts.
func (m *Machine) probe() {
	if m.probeArmed {
		m.sample()
	}
	m.probeArmed = true
	m.probeK.Delay(m.probeEveryMs)
}

// sample takes one probe snapshot. Pure reads only: BusyTime() on the
// resources is side-effect-free, and the gauges are queue/map lengths.
func (m *Machine) sample() {
	ts := m.probes
	ts.Times = append(ts.Times, m.sim.Now())
	for i := 0; i <= m.cfg.NumProcNodes; i++ {
		ns := &ts.Nodes[i]
		da := m.hostDisks
		if i < m.cfg.NumProcNodes {
			da = m.disks[i]
		}
		cpuBusy := m.cpus[i].BusyTime()
		diskBusy := da.BusyTime()
		ns.CPUUtil = append(ns.CPUUtil, (cpuBusy-m.prevCPUBusy[i])/m.probeEveryMs)
		ns.DiskUtil = append(ns.DiskUtil, (diskBusy-m.prevDiskBusy[i])/(m.probeEveryMs*float64(da.NumDisks())))
		m.prevCPUBusy[i] = cpuBusy
		m.prevDiskBusy[i] = diskBusy
		ns.ReadyQueue = append(ns.ReadyQueue, m.cpus[i].QueueLen())
		var active, tableSize, blocked int
		if i < m.cfg.NumProcNodes {
			active = m.activeCohorts[i]
			if g, ok := m.mgrs[i].(ccGauges); ok {
				tableSize = g.TableSize()
				blocked = g.BlockedCount()
			}
		}
		ns.ActiveCohorts = append(ns.ActiveCohorts, active)
		ns.LockTableSize = append(ns.LockTableSize, tableSize)
		ns.BlockedTxns = append(ns.BlockedTxns, blocked)
		down := 0
		if m.ft != nil && i < m.cfg.NumProcNodes && m.ft.inj.Down(i) {
			down = 1
		}
		ns.Down = append(ns.Down, down)
	}
}

// expectedCommits estimates how many transactions will commit inside the
// measurement window, for preallocating the per-response sample buffer:
// each terminal cycles through one think time plus roughly one response
// (taken as the restart delay plus a small floor to avoid dividing by
// near-zero for no-think workloads).
func expectedCommits(cfg *Config) int {
	cycleMs := cfg.ThinkTimeMs + cfg.InitialRestartDelayMs + 100
	window := cfg.SimTimeMs - cfg.WarmupMs
	return int(float64(cfg.NumTerminals) * window / cycleMs)
}

// nextTS returns the next globally unique, monotone timestamp.
func (m *Machine) nextTS() int64 {
	m.tsCounter++
	return m.tsCounter
}

func (m *Machine) nextTxnID() int64 {
	m.txnCounter++
	return m.txnCounter
}

// globalEnv adapts the machine to cc.GlobalEnv for algorithm-global
// machinery (the 2PL Snoop).
type globalEnv struct{ m *Machine }

func (g globalEnv) Sim() *sim.Sim                            { return g.m.sim }
func (g globalEnv) NumProcNodes() int                        { return g.m.cfg.NumProcNodes }
func (g globalEnv) ManagerAt(node int) cc.Manager            { return g.m.mgrs[node] }
func (g globalEnv) SendControl(from, to int, deliver func()) { g.m.net.SendFunc(from, to, deliver) }

// Start launches the workload (terminals) and algorithm-global processes,
// and schedules the warmup boundary. Exposed separately from Run for tests
// that drive the simulator manually.
func (m *Machine) Start() {
	m.algo.StartGlobal(globalEnv{m})
	m.terms = make([]terminal, m.cfg.NumTerminals)
	for i := range m.terms {
		m.newTerminal(&m.terms[i], i)
		m.terms[i].k.Resume()
	}
	m.sim.Schedule(m.cfg.WarmupMs, func() {
		m.stats.startMeasuring(m.sim.Now())
		for _, c := range m.cpus {
			c.MarkWarmup()
		}
		for _, d := range m.disks {
			d.MarkWarmup()
		}
	})
	if m.probes != nil {
		m.probeK.Init(m.sim, m.probe)
		m.probeK.Resume()
	}
	if m.ft != nil {
		m.ft.inj.Start()
	}
}

// Run executes the configured simulation and returns its metrics.
func (m *Machine) Run() Result {
	m.Start()
	m.sim.Run(m.cfg.SimTimeMs)
	return m.result()
}

// Run builds a machine from cfg, runs it, and returns the result.
func Run(cfg Config) (Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(), nil
}

// result gathers the metrics after the run.
func (m *Machine) result() Result {
	cfg := m.cfg
	measured := m.sim.Now() - cfg.WarmupMs
	r := Result{
		Config:     cfg,
		MeasuredMs: measured,
		Commits:    m.stats.commits,
		Aborts:     m.stats.aborts,
	}
	if measured > 0 {
		r.ThroughputTPS = float64(m.stats.commits) / (measured / 1000)
	}
	r.MeanResponseMs = m.stats.resp.Mean()
	r.RespHalfWidth95 = m.stats.respBatch.HalfWidth95()
	r.RespStdDev = m.stats.resp.StdDev()
	r.MaxResponseMs = m.stats.resp.Max()
	if n := len(m.stats.respAll); n > 0 {
		sorted := make([]float64, n)
		copy(sorted, m.stats.respAll)
		slices.Sort(sorted)
		pct := func(p float64) float64 {
			i := int(p * float64(n-1))
			return sorted[i]
		}
		r.RespP50Ms = pct(0.50)
		r.RespP90Ms = pct(0.90)
		r.RespP99Ms = pct(0.99)
	}
	if m.stats.commits > 0 {
		r.AbortRatio = float64(m.stats.aborts) / float64(m.stats.commits)
	} else if m.stats.aborts > 0 {
		r.AbortRatio = float64(m.stats.aborts)
	}
	r.MeanRestarts = m.stats.restarts.Mean()
	r.MeanBlockMs = m.stats.block.Mean()
	r.BlockCount = m.stats.block.Count()
	for i := 0; i < cfg.NumProcNodes; i++ {
		cu := m.cpus[i].Utilization()
		du := m.disks[i].Utilization()
		r.PerNodeCPUUtil = append(r.PerNodeCPUUtil, cu)
		r.PerNodeDiskUtil = append(r.PerNodeDiskUtil, du)
		r.ProcCPUUtil += cu
		r.ProcDiskUtil += du
	}
	r.ProcCPUUtil /= float64(cfg.NumProcNodes)
	r.ProcDiskUtil /= float64(cfg.NumProcNodes)
	r.HostCPUUtil = m.cpus[m.hostID].Utilization()
	r.MessagesSent = m.net.Sent()
	r.LogForces = m.logForces
	r.AbortPathLogForces = m.abortLogForces
	r.AvgActiveTxns = m.stats.active.Mean(m.sim.Now())
	if ft := m.ft; ft != nil {
		r.Crashes = ft.inj.Crashes()
		r.MessagesLost = m.net.Lost()
		r.InDoubtTimeMs = ft.inDoubtMs
		r.InDoubtWindows = ft.inDoubtWindows
		r.BlockedInDoubtMs = ft.blockedInDoubtMs
		r.RecoveryTimeMs = ft.recoveryMs
		var downMs float64
		for i := 0; i < cfg.NumProcNodes; i++ {
			downMs += ft.inj.DownMs(i, m.sim.Now())
		}
		if total := float64(m.sim.Now()) * float64(cfg.NumProcNodes); total > 0 {
			r.Availability = 1 - downMs/total
		}
		if r.Availability > 0 {
			r.GoodputPerSec = r.ThroughputTPS / r.Availability
		}
	}
	if m.rec != nil {
		r.AuditedTxns = int64(len(m.rec.Records()))
		for _, v := range m.rec.Check() {
			r.AuditViolations = append(r.AuditViolations, v.String())
		}
	}
	m.bd.resultFields(&r)
	return r
}
