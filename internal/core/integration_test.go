package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"ddbm/internal/cc"
)

// testConfig returns a small-but-contended configuration that runs in well
// under a second of real time.
func testConfig(alg cc.Kind) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.NumProcNodes = 4
	cfg.NumTerminals = 32
	cfg.PagesPerFile = 60 // tighten contention so aborts actually occur
	cfg.ThinkTimeMs = 1000
	cfg.SimTimeMs = 60_000
	cfg.WarmupMs = 10_000
	cfg.Seed = 7
	return cfg
}

func TestEndToEndAllAlgorithms(t *testing.T) {
	for _, alg := range cc.Kinds() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(testConfig(alg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits < 50 {
				t.Fatalf("only %d commits; the system is not making progress", res.Commits)
			}
			if res.MeanResponseMs <= 0 {
				t.Fatal("non-positive mean response time")
			}
			if res.ThroughputTPS <= 0 {
				t.Fatal("non-positive throughput")
			}
			for i, u := range res.PerNodeCPUUtil {
				if u < 0 || u > 1.0001 {
					t.Errorf("node %d CPU utilization %v out of range", i, u)
				}
			}
			for i, u := range res.PerNodeDiskUtil {
				if u < 0 || u > 1.0001 {
					t.Errorf("node %d disk utilization %v out of range", i, u)
				}
			}
			if res.HostCPUUtil < 0 || res.HostCPUUtil > 1.0001 {
				t.Errorf("host CPU utilization %v out of range", res.HostCPUUtil)
			}
			if res.MessagesSent == 0 {
				t.Error("no messages in a distributed run")
			}
			if alg == cc.NoDC && res.Aborts != 0 {
				t.Errorf("NO_DC aborted %d times", res.Aborts)
			}
			if alg == cc.OPT && res.BlockCount != 0 {
				t.Errorf("OPT blocked %d times; it must never block", res.BlockCount)
			}
			// Little's law sanity: N = X * (R + Z), within 25% (finite run).
			n := res.ThroughputTPS * (res.MeanResponseMs + res.Config.ThinkTimeMs) / 1000
			if math.Abs(n-32) > 8 {
				t.Errorf("Little's law violated: X*(R+Z) = %.1f, terminals = 32", n)
			}
		})
	}
}

func TestContentionCausesAborts(t *testing.T) {
	// With a tiny database, every algorithm except NO_DC must abort
	// sometimes — and the aborting algorithms still make progress.
	for _, alg := range []cc.Kind{cc.TwoPL, cc.WoundWait, cc.BTO, cc.OPT} {
		cfg := testConfig(alg)
		cfg.PagesPerFile = 25
		cfg.ThinkTimeMs = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborts == 0 {
			t.Errorf("%v: no aborts under extreme contention", alg)
		}
		if res.Commits == 0 {
			t.Errorf("%v: no commits under extreme contention (livelock?)", alg)
		}
	}
}

func TestNoContentionNoAborts(t *testing.T) {
	// A single terminal can never conflict with anyone: all algorithms
	// must run abort-free and block-free.
	for _, alg := range cc.Kinds() {
		cfg := testConfig(alg)
		cfg.NumTerminals = 1
		cfg.ThinkTimeMs = 100
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborts != 0 {
			t.Errorf("%v: %d aborts with a single terminal", alg, res.Aborts)
		}
		if res.BlockCount != 0 {
			t.Errorf("%v: %d blocking episodes with a single terminal", alg, res.BlockCount)
		}
		if res.Commits == 0 {
			t.Errorf("%v: no commits", alg)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, alg := range []cc.Kind{cc.TwoPL, cc.OPT} {
		a, err := Run(testConfig(alg))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(testConfig(alg))
		if err != nil {
			t.Fatal(err)
		}
		if a.Commits != b.Commits || a.Aborts != b.Aborts ||
			a.MeanResponseMs != b.MeanResponseMs || a.MessagesSent != b.MessagesSent {
			t.Errorf("%v: runs with identical seeds diverge: %+v vs %+v",
				alg, a.Commits, b.Commits)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	a, _ := Run(cfg)
	cfg.Seed = 99
	b, _ := Run(cfg)
	if a.MeanResponseMs == b.MeanResponseMs && a.Commits == b.Commits {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestSequentialSlowerThanParallelWhenIdle(t *testing.T) {
	// A single transaction at a time: parallel cohorts cut response time
	// substantially vs sequential cohorts.
	base := DefaultConfig()
	base.NumProcNodes = 8
	base.PartitionWays = 8
	base.NumTerminals = 1
	base.ThinkTimeMs = 500
	base.SimTimeMs = 120_000
	base.WarmupMs = 10_000
	base.Algorithm = cc.TwoPL

	par := base
	par.ExecPattern = Parallel
	seq := base
	seq.ExecPattern = Sequential
	rp, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if rp.MeanResponseMs*2 > rs.MeanResponseMs {
		t.Errorf("parallel %v ms vs sequential %v ms: expected >2x gap for 8 cohorts",
			rp.MeanResponseMs, rs.MeanResponseMs)
	}
}

func TestSingleNodeNoNetworkForData(t *testing.T) {
	// A 1-node machine still exchanges coordinator/cohort messages (host
	// to node), so messages are nonzero, but cohort counts equal one per
	// transaction.
	cfg := testConfig(cc.TwoPL)
	cfg.NumProcNodes = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.MessagesSent == 0 {
		t.Fatal("1-node machine did not run")
	}
}

func TestUtilizationIncreasesWithLoad(t *testing.T) {
	light := testConfig(cc.NoDC)
	light.ThinkTimeMs = 20_000
	heavy := testConfig(cc.NoDC)
	heavy.ThinkTimeMs = 0
	rl, err := Run(light)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if rh.ProcDiskUtil <= rl.ProcDiskUtil {
		t.Errorf("disk utilization did not rise with load: %v vs %v",
			rl.ProcDiskUtil, rh.ProcDiskUtil)
	}
	if rh.MeanResponseMs <= rl.MeanResponseMs {
		t.Errorf("response time did not rise with load: %v vs %v",
			rl.MeanResponseMs, rh.MeanResponseMs)
	}
}

func TestResponseAbovePhysicalMinimum(t *testing.T) {
	// Every transaction reads >= 4 pages per partition from each of its
	// cohorts' disks; with 8 partitions over 4 nodes each cohort does >= 8
	// reads at >= 10 ms sequentially. Response can never beat that.
	res, err := Run(testConfig(cc.NoDC))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponseMs < 80 {
		t.Errorf("mean response %v ms below the physical floor", res.MeanResponseMs)
	}
}

func TestMachineAccessors(t *testing.T) {
	m, err := NewMachine(testConfig(cc.BTO))
	if err != nil {
		t.Fatal(err)
	}
	if m.Sim() == nil || m.Catalog() == nil {
		t.Fatal("nil accessors")
	}
	if m.Manager(0) == nil || m.Manager(3) == nil {
		t.Fatal("nil managers")
	}
	if m.Manager(0).Kind() != cc.BTO {
		t.Fatal("wrong manager kind")
	}
}

func TestNewMachineRejectsBadConfig(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.NumTerminals = 0
	if _, err := NewMachine(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted bad config")
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	cfg := testConfig(cc.Kind(42))
	if _, err := NewMachine(cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAbortRatioConsistent(t *testing.T) {
	cfg := testConfig(cc.OPT)
	cfg.ThinkTimeMs = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Aborts) / float64(res.Commits)
	if math.Abs(res.AbortRatio-want) > 1e-9 {
		t.Errorf("abort ratio %v, want %v", res.AbortRatio, want)
	}
	if res.MeanRestarts < 0 {
		t.Error("negative restart count")
	}
}

func TestBlockingTimeMeasuredForLocking(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.ThinkTimeMs = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockCount == 0 || res.MeanBlockMs <= 0 {
		t.Error("2PL under contention recorded no blocking")
	}
}

func TestMeasuredWindow(t *testing.T) {
	cfg := testConfig(cc.NoDC)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeasuredMs-(cfg.SimTimeMs-cfg.WarmupMs)) > 1e-6 {
		t.Errorf("measured window %v, want %v", res.MeasuredMs, cfg.SimTimeMs-cfg.WarmupMs)
	}
}

func TestActiveTxnsBounded(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgActiveTxns < 0 || res.AvgActiveTxns > float64(cfg.NumTerminals) {
		t.Errorf("average active transactions %v outside [0, %d]", res.AvgActiveTxns, cfg.NumTerminals)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for ten reads a millisecond apart (giving up after a second). The
// testing package starts a test as soon as the one before it signals
// completion, while that test's goroutine may still be finishing;
// counted in a before-snapshot, it would later look like a goroutine the
// run ended. When other test binaries keep the host's CPUs busy, that
// goroutine can wait several milliseconds to be scheduled, so a single
// quiet millisecond does not show it has gone.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, deadline := 0, time.Now().Add(time.Second); still < 10 && time.Now().Before(deadline); {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestNoGoroutineLeaks: a run starts no goroutine — every simulation
// process is a continuation on the caller's goroutine — so the goroutine
// count read between any two events mid-run, and after the run, equals
// the count before it.
func TestNoGoroutineLeaks(t *testing.T) {
	m, err := NewMachine(testConfig(cc.TwoPL))
	if err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	s := m.Sim()
	m.Start()
	steps, mismatched := 0, 0
	for s.Step(m.cfg.SimTimeMs) {
		steps++
		if runtime.NumGoroutine() != before {
			mismatched++
		}
	}
	s.Run(m.cfg.SimTimeMs)
	if m.stats.commits == 0 {
		t.Fatal("the run committed nothing")
	}
	if mismatched != 0 {
		t.Errorf("goroutine count differed from %d after %d of %d events mid-run", before, mismatched, steps)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}
