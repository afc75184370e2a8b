// Command ddbsim runs one simulation of the distributed database machine
// model and prints its metrics. All model parameters (paper Tables 1-4) are
// exposed as flags; defaults are the paper's baseline settings.
//
// Example — the 8-node, 8-way-partitioned machine under wound-wait at a
// 12-second think time:
//
//	ddbsim -alg WW -nodes 8 -ways 8 -think 12
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ddbm"
	"ddbm/internal/cc"
	"ddbm/internal/obs"
)

func main() {
	cfg := ddbm.DefaultConfig()

	alg := flag.String("alg", "2PL", "algorithm: 2PL, WW, BTO, OPT or NO_DC")
	protocol := flag.String("protocol", "2PC", "commit protocol: 2PC (centralized), PA (presumed abort) or PC (presumed commit)")
	nodes := flag.Int("nodes", cfg.NumProcNodes, "number of processing nodes")
	ways := flag.Int("ways", cfg.PartitionWays, "partitioning degree (0 = spread every relation over all nodes)")
	pages := flag.Int("pages", cfg.PagesPerFile, "pages per file (300 = small DB, 1200 = large DB)")
	terms := flag.Int("terminals", cfg.NumTerminals, "number of terminals")
	think := flag.Float64("think", 0, "mean terminal think time (seconds)")
	avgPages := flag.Int("txnpages", cfg.AvgPagesPerPartition, "average pages read per partition")
	writeProb := flag.Float64("writeprob", cfg.WriteProb, "probability an accessed page is updated")
	instPage := flag.Float64("instpage", cfg.InstPerPage, "mean instructions to process a page")
	hostMIPS := flag.Float64("hostmips", cfg.HostMIPS, "host CPU speed (MIPS)")
	procMIPS := flag.Float64("procmips", cfg.ProcMIPS, "processing node CPU speed (MIPS)")
	disks := flag.Int("disks", cfg.NumDisks, "disks per node")
	startup := flag.Float64("startup", cfg.InstPerStartup, "instructions to start a process")
	msg := flag.Float64("msg", cfg.InstPerMsg, "instructions to send/receive a message (each end)")
	update := flag.Float64("update", cfg.InstPerUpdate, "instructions to initiate a deferred page write")
	ccreq := flag.Float64("ccreq", cfg.InstPerCCReq, "instructions per concurrency control request")
	detect := flag.Float64("detect", cfg.DetectionIntervalMs/1000, "2PL Snoop detection interval (seconds)")
	lockTimeout := flag.Float64("locktimeout", 0, "2PL lock-wait timeout in seconds (0 = deadlock detection)")
	replicas := flag.Int("replicas", 1, "copies of every file (read-one/write-all)")
	deferLocks := flag.Bool("defer", false, "defer remote-copy write locks to commit phase 1 (2PL + replication)")
	auditFlag := flag.Bool("audit", false, "run the serializability auditor and report anomalies")
	trace := flag.Int("trace", 0, "print the first N transaction life-cycle events")
	traceOut := flag.String("trace-out", "", "write a simulated-time trace to `file` (.jsonl = flat event stream, otherwise Chrome trace-event JSON for Perfetto)")
	probeInterval := flag.Float64("probe-interval", 0, "sample per-node gauges every `N` milliseconds of simulated time (0 = off)")
	breakdown := flag.Bool("breakdown", false, "account every simulated microsecond of response time to a phase and every abort to a cause, and print the breakdown")
	breakdownOut := flag.String("breakdown-out", "", "write the per-class breakdown detail to `file` (.csv = CSV table, otherwise JSONL)")
	logging := flag.Bool("logging", false, "model log forces (prepare records + commit record)")
	mttf := flag.Float64("mttf", 0, "mean time to failure per processing node in seconds (0 = nodes never crash; requires -logging)")
	mttr := flag.Float64("mttr", 2, "repair delay after a node crash (seconds)")
	crashDetect := flag.Float64("crash-detect", 0.5, "coordinator failure-detection latency after a node crash (seconds)")
	fixedFaults := flag.Bool("fixed-faults", false, "use fixed inter-failure intervals instead of exponential")
	hostMTTF := flag.Float64("host-mttf", 0, "mean time to failure of the coordinator host in seconds (0 = never; failover model)")
	hostMTTR := flag.Float64("host-mttr", 1, "host failover duration (seconds)")
	dropProb := flag.Float64("drop-prob", 0, "per-message loss probability (lost messages retransmit after -retransmit)")
	dupProb := flag.Float64("dup-prob", 0, "per-message duplication probability (duplicates are pure load)")
	retransmit := flag.Float64("retransmit", 0.05, "retransmission delay for a lost message (seconds)")
	seq := flag.Bool("sequential", false, "run cohorts sequentially instead of in parallel")
	simTime := flag.Float64("simtime", cfg.SimTimeMs/1000, "simulated duration (seconds)")
	warmup := flag.Float64("warmup", cfg.WarmupMs/1000, "warmup before measurement (seconds)")
	seed := flag.Int64("seed", cfg.Seed, "random seed")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to `file` after the run")
	flag.Parse()

	kind, err := ddbm.ParseAlgorithm(*alg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Algorithm = kind
	proto, err := ddbm.ParseCommitProtocol(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.CommitProtocol = proto
	cfg.NumProcNodes = *nodes
	cfg.PartitionWays = *ways
	cfg.PagesPerFile = *pages
	cfg.NumTerminals = *terms
	cfg.ThinkTimeMs = *think * 1000
	cfg.AvgPagesPerPartition = *avgPages
	cfg.WriteProb = *writeProb
	cfg.InstPerPage = *instPage
	cfg.HostMIPS = *hostMIPS
	cfg.ProcMIPS = *procMIPS
	cfg.NumDisks = *disks
	cfg.InstPerStartup = *startup
	cfg.InstPerMsg = *msg
	cfg.InstPerUpdate = *update
	cfg.InstPerCCReq = *ccreq
	cfg.DetectionIntervalMs = *detect * 1000
	cfg.LockWaitTimeoutMs = *lockTimeout * 1000
	cfg.ReplicaCount = *replicas
	cfg.DeferRemoteWriteLocks = *deferLocks
	cfg.Audit = *auditFlag
	cfg.ModelLogging = *logging
	if *mttf > 0 || *hostMTTF > 0 || *dropProb > 0 || *dupProb > 0 {
		cfg.Faults.Enabled = true
		cfg.Faults.NodeMTTFMs = *mttf * 1000
		cfg.Faults.FixedInterFailure = *fixedFaults
		cfg.Faults.MTTRMs = *mttr * 1000
		cfg.Faults.DetectMs = *crashDetect * 1000
		cfg.Faults.HostMTTFMs = *hostMTTF * 1000
		cfg.Faults.HostMTTRMs = *hostMTTR * 1000
		cfg.Faults.DropProb = *dropProb
		cfg.Faults.DupProb = *dupProb
		cfg.Faults.RetransmitDelayMs = *retransmit * 1000
	}
	cfg.Breakdown = *breakdown || *breakdownOut != ""
	if *seq {
		cfg.ExecPattern = ddbm.Sequential
	}
	cfg.SimTimeMs = *simTime * 1000
	cfg.WarmupMs = *warmup * 1000
	cfg.Seed = *seed

	m, err := ddbm.NewMachine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var tracer *ddbm.Tracer
	if *trace > 0 || *traceOut != "" {
		tracer = m.EnableTracing()
	}
	var series *ddbm.TimeSeries
	if *probeInterval > 0 {
		series = m.EnableProbes(*probeInterval)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	res := m.Run()
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // idempotent with the defer; flush before reporting
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	if *trace > 0 {
		printLifecycle(tracer.Events(), *trace)
	}
	fmt.Printf("algorithm            %v (%s execution, %v commit)\n", cfg.Algorithm, cfg.ExecPattern, cfg.CommitProtocol)
	fmt.Printf("machine              1 host (%.0f MIPS) + %d nodes (%.0f MIPS, %d disks each)\n",
		cfg.HostMIPS, cfg.NumProcNodes, cfg.ProcMIPS, cfg.NumDisks)
	fmt.Printf("database             %d files x %d pages (placement ways=%d)\n",
		cfg.NumRelations*cfg.PartsPerRelation, cfg.PagesPerFile, cfg.PartitionWays)
	fmt.Printf("workload             %d terminals, think %.1f s, ~%d reads/txn, write prob %.2f\n",
		cfg.NumTerminals, cfg.ThinkTimeMs/1000, cfg.AvgPagesPerPartition*cfg.PartsPerRelation, cfg.WriteProb)
	fmt.Printf("measured window      %.0f s (after %.0f s warmup)\n", res.MeasuredMs/1000, cfg.WarmupMs/1000)
	fmt.Println()
	fmt.Printf("throughput           %.3f txns/s (%d commits)\n", res.ThroughputTPS, res.Commits)
	fmt.Printf("response time        %.0f ms mean (±%.0f ms 95%% CI, sd %.0f, max %.0f)\n",
		res.MeanResponseMs, res.RespHalfWidth95, res.RespStdDev, res.MaxResponseMs)
	fmt.Printf("response percentiles P50 %.0f / P90 %.0f / P99 %.0f ms\n",
		res.RespP50Ms, res.RespP90Ms, res.RespP99Ms)
	fmt.Printf("abort ratio          %.4f aborts/commit (%d aborts, %.2f restarts/txn)\n",
		res.AbortRatio, res.Aborts, res.MeanRestarts)
	fmt.Printf("blocking             %.0f ms mean over %d episodes\n", res.MeanBlockMs, res.BlockCount)
	fmt.Printf("utilization          proc CPU %.1f%%, proc disk %.1f%%, host CPU %.1f%%\n",
		res.ProcCPUUtil*100, res.ProcDiskUtil*100, res.HostCPUUtil*100)
	fmt.Printf("messages             %d\n", res.MessagesSent)
	if cfg.ModelLogging {
		fmt.Printf("log forces           %d (%d on abort paths)\n", res.LogForces, res.AbortPathLogForces)
	}
	fmt.Printf("avg active txns      %.1f\n", res.AvgActiveTxns)
	if cfg.Faults.Enabled {
		fmt.Printf("faults               %d crashes, %d messages lost, availability %.2f%%\n",
			res.Crashes, res.MessagesLost, res.Availability*100)
		fmt.Printf("goodput              %.3f txns/s per available second (recovery %.0f ms total)\n",
			res.GoodputPerSec, res.RecoveryTimeMs)
		fmt.Printf("in-doubt             %.0f ms over %d windows, %.0f ms spent blocked behind in-doubt locks\n",
			res.InDoubtTimeMs, res.InDoubtWindows, res.BlockedInDoubtMs)
	}
	if cfg.Breakdown {
		printBreakdown(res, m.Breakdown())
	}
	if *breakdownOut != "" {
		f, err := os.Create(*breakdownOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		snap := m.Breakdown()
		if strings.HasSuffix(*breakdownOut, ".csv") {
			err = ddbm.WriteBreakdownCSV(f, snap)
		} else {
			err = ddbm.WriteBreakdownJSONL(f, snap)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("breakdown detail     %d phase rows, %d cause rows -> %s\n",
			len(snap.Phases), len(snap.Causes), *breakdownOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if strings.HasSuffix(*traceOut, ".jsonl") {
			err = ddbm.WriteTraceJSONL(f, tracer.Events())
		} else {
			err = ddbm.WriteChromeTrace(f, tracer.Events(), cfg.NumProcNodes)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace                %d events -> %s\n", tracer.Len(), *traceOut)
	}
	if series != nil {
		var cpu, disk float64
		for i := 0; i < cfg.NumProcNodes; i++ {
			cpu += series.MeanCPUUtil(i, cfg.WarmupMs, cfg.SimTimeMs)
			disk += series.MeanDiskUtil(i, cfg.WarmupMs, cfg.SimTimeMs)
		}
		cpu /= float64(cfg.NumProcNodes)
		disk /= float64(cfg.NumProcNodes)
		fmt.Printf("probes               %d samples every %g ms; sampled proc CPU %.1f%%, proc disk %.1f%%\n",
			series.Len(), *probeInterval, cpu*100, disk*100)
	}
	if cfg.Audit {
		fmt.Printf("serializability      %d txns audited, %d anomalies\n",
			res.AuditedTxns, len(res.AuditViolations))
		for i, v := range res.AuditViolations {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(res.AuditViolations)-5)
				break
			}
			fmt.Printf("  %s\n", v)
		}
	}
}

// printLifecycle prints the first n transaction life-cycle instants of
// the trace, one line each: simulated time, transaction, attempt, event
// and, in parentheses, its detail (an abort reason, a decision).
func printLifecycle(log *ddbm.TraceLog, n int) {
	for i := 0; i < log.Len() && n > 0; i++ {
		e := log.At(i)
		if !e.Lifecycle() {
			continue
		}
		line := fmt.Sprintf("%10.1fms txn %-6d #%d %s", e.Start, e.Txn, e.Attempt, e.Name)
		if e.Detail != "" {
			line += " (" + e.Detail + ")"
		}
		fmt.Println(line)
		n--
	}
}

// printBreakdown renders the "where the milliseconds go" report: every
// phase of the mean committed response in canonical order with its share,
// then the abort-cause table with per-node attribution. Phases come from
// the Result's merged maps (which sum to the mean response by the
// reconciliation invariant); cause rows come from the snapshot so the
// attributing node is visible.
func printBreakdown(res ddbm.Result, snap *ddbm.BreakdownSnapshot) {
	fmt.Println()
	fmt.Println("time breakdown       mean ms    p99 ms   % of resp")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := p.String()
		mean := res.PhaseMeanMs[name]
		share := 0.0
		if res.MeanResponseMs > 0 {
			share = 100 * mean / res.MeanResponseMs
		}
		fmt.Printf("  %-18s %9.2f %9.2f      %5.1f%%\n", name, mean, res.PhaseP99Ms[name], share)
	}
	if res.Aborts == 0 {
		fmt.Println("abort causes         none (0 aborts)")
		return
	}
	fmt.Println("abort causes         count      share  nodes")
	for c := cc.Cause(0); c < cc.NumCauses; c++ {
		name := c.String()
		n, ok := res.AbortsByCause[name]
		if !ok {
			continue
		}
		var nodes []string
		for _, row := range snap.Causes {
			if row.Cause == name {
				nodes = append(nodes, fmt.Sprintf("%d:%d", row.Node, row.Count))
			}
		}
		fmt.Printf("  %-18s %6d     %5.1f%%  %s\n",
			name, n, 100*float64(n)/float64(res.Aborts), strings.Join(nodes, " "))
	}
}
