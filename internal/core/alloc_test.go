package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/fault"
)

// TestTxnPathAllocFree pins the steady-state transaction path at zero heap
// allocations, end to end: terminal loop, plan generation, attempt and
// cohort state, typed network envelopes, commit fan-out and votes, lock
// manager traffic, CPU/disk scheduling and the metrics tallies. The warm
// phase grows every pool (attempt states, cohort runs, envelopes, plan
// buffers, the event pool) to its high-water mark; after that, a full
// measurement window of contended execution — commits, aborts, blocking,
// restarts — must not allocate at all.
//
// The pin runs the default 2PL algorithm under each commit protocol with
// logging modeled (the force-log continuation paths), plus the unlogged
// default, so every protocol variant's message and force chains are
// covered. Every protocol case additionally runs with the time-breakdown
// accounting enabled: the ledger spends, folds, histogram adds and cause
// tallies ride the same pinned path and must stay allocation-free too.
// Wound-wait (the shared lock table under a second manager), O2PL (the
// deferred write locks of commit phase one) and NO_DC (the path with no
// data contention) run under logged 2PC. Only BTO and OPT still allocate
// in this window and are not pinned.
//
// The per-cohort pools are sized from the placement, so two more 2PL cases
// cover the placements where that bound exceeds one partition's page
// maximum: replicas2-defer (two copies of every file, remote-copy write
// locks deferred to commit, so writes add accesses at a second node) and
// ways2 (PartitionWays 2, several partitions of a relation per node). An
// under-counted bound shows up here as allocations.
//
// Three more 2PL cases run branches the others never reach: sequential
// cohort execution (ExecPattern Sequential), message loss and duplication
// firing with retransmission but no crashes, and the lock-wait timeout
// scheme (a pooled timer per blocked request, in place of detection).
// Crashes themselves are not pinned: the crash and recovery path allocates
// (ROADMAP).
func TestTxnPathAllocFree(t *testing.T) {
	cases := []struct {
		name      string
		alg       cc.Kind
		proto     commit.Kind
		logging   bool
		breakdown bool
		armed     bool
		knobs     func(*Config) // placement and other knobs; nil keeps testConfig's
	}{
		{"2PC-logging", cc.TwoPL, commit.CentralizedTwoPC, true, false, false, nil},
		{"PA-logging", cc.TwoPL, commit.PresumedAbort, true, false, false, nil},
		{"PC-logging", cc.TwoPL, commit.PresumedCommit, true, false, false, nil},
		{"2PC-nologging", cc.TwoPL, commit.CentralizedTwoPC, false, false, false, nil},
		{"2PC-logging-breakdown", cc.TwoPL, commit.CentralizedTwoPC, true, true, false, nil},
		{"PA-logging-breakdown", cc.TwoPL, commit.PresumedAbort, true, true, false, nil},
		{"PC-logging-breakdown", cc.TwoPL, commit.PresumedCommit, true, true, false, nil},
		{"2PC-nologging-breakdown", cc.TwoPL, commit.CentralizedTwoPC, false, true, false, nil},
		// The armed case pins the fault seams themselves: with an injector
		// built but its schedule never firing, the per-attempt and
		// per-cohort registries, in-doubt windows and simulated WAL all
		// ride the transaction path and must be allocation-free in steady
		// state once grown to their high-water marks. (The disabled cases
		// above pin the nil-injector path: Config.Faults zero means no
		// fault state exists at all.)
		{"2PC-logging-faults-armed", cc.TwoPL, commit.CentralizedTwoPC, true, false, true, nil},
		{"WW-2PC-logging", cc.WoundWait, commit.CentralizedTwoPC, true, false, false, nil},
		{"O2PL-2PC-logging", cc.O2PL, commit.CentralizedTwoPC, true, false, false, nil},
		{"NO_DC-2PC-logging", cc.NoDC, commit.CentralizedTwoPC, true, false, false, nil},
		{"2PL-replicas2-defer", cc.TwoPL, commit.CentralizedTwoPC, true, false, false, func(c *Config) {
			c.ReplicaCount, c.DeferRemoteWriteLocks = 2, true
		}},
		{"2PL-ways2", cc.TwoPL, commit.CentralizedTwoPC, true, false, false, func(c *Config) {
			c.PartitionWays = 2
		}},
		{"2PL-sequential", cc.TwoPL, commit.PresumedAbort, true, false, false, func(c *Config) {
			c.ExecPattern = Sequential
		}},
		{"2PL-loss-dup", cc.TwoPL, commit.PresumedAbort, true, false, false, func(c *Config) {
			c.Faults = fault.Config{Enabled: true, DropProb: 0.01, DupProb: 0.01, RetransmitDelayMs: 50}
		}},
		{"2PL-timeout", cc.TwoPL, commit.PresumedAbort, true, false, false, func(c *Config) {
			c.LockWaitTimeoutMs = 1_000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.alg)
			cfg.CommitProtocol = tc.proto
			cfg.ModelLogging = tc.logging
			cfg.Breakdown = tc.breakdown
			if tc.knobs != nil {
				tc.knobs(&cfg)
			}
			if tc.armed {
				cfg.Faults = fault.Config{
					Enabled:           true,
					NodeMTTFMs:        100 * cfg.SimTimeMs,
					FixedInterFailure: true,
					MTTRMs:            1_000,
					DetectMs:          100,
				}
			}
			cfg.SimTimeMs = 500_000
			cfg.WarmupMs = 10_000
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := m.Sim()
			m.Start()
			// The warm phase grows every pool to its high-water mark. The
			// machine pre-sizes (Reserve) everything whose high-water
			// records would otherwise keep arriving — records thin out as
			// 1/t and never stop — so a few warm minutes suffice for what
			// remains.
			for s.Step(300_000) {
			}
			// The first measured window must be clean. Every process is a
			// continuation on the simulation's own goroutine, so no parked
			// goroutine can grow the runtime's sudog pool behind the pin's
			// back. What the runtime still does on its own is quiesced
			// first: FreeOSMemory collects and returns all free memory, so
			// the background scavenger has nothing left to pace with its
			// timer (whose heap can grow inside the window), and the short
			// pause lets the collector's workers park before measuring.
			// The runtime allocates when it starts an OS thread, so the
			// thread pool is grown up front (warmThreads).
			warmThreads()
			debug.FreeOSMemory()
			time.Sleep(20 * time.Millisecond)
			var before, after runtime.MemStats
			commitsBefore := m.stats.commits
			runtime.ReadMemStats(&before)
			for s.Step(360_000) {
			}
			runtime.ReadMemStats(&after)
			committed := m.stats.commits - commitsBefore
			if committed < 100 {
				t.Fatalf("only %d commits in the measured window; the pin did not exercise the path", committed)
			}
			if d := after.Mallocs - before.Mallocs; d != 0 {
				t.Errorf("%d heap allocations across %d steady-state commits, want 0", d, committed)
			}
		})
	}
}

var warmThreadsOnce sync.Once

// warmThreads leaves the runtime a pool of idle OS threads. Each thread the
// scheduler starts allocates its runtime records, so a thread started in a
// measured window would count against the pin. Goroutines that wait while
// locked to their threads make the runtime start a thread per goroutine
// now; unlocked again before they exit, the threads stay for reuse.
func warmThreads() {
	warmThreadsOnce.Do(func() {
		n := 4 * runtime.GOMAXPROCS(0)
		var locked, done sync.WaitGroup
		release := make(chan struct{})
		locked.Add(n)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer done.Done()
				runtime.LockOSThread()
				locked.Done()
				<-release
				runtime.UnlockOSThread()
			}()
		}
		locked.Wait()
		close(release)
		done.Wait()
	})
}

// TestNewMachineFootprint bounds what building the paper's Table 4 machine
// allocates. Every pool is sized from the placement (12 accesses per
// cohort there, not the 96 of all partitions at one node) and carved from
// a few slabs, so a return to worst-case sizing or to one object per
// pooled record fails here, without running the benchmark.
func TestNewMachineFootprint(t *testing.T) {
	const maxBytes, maxObjects = 8 << 20, 10_000
	cfg := DefaultConfig()
	cfg.ThinkTimeMs = 4000
	cfg.SimTimeMs, cfg.WarmupMs = 240_000, 30_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := NewMachine(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("NewMachine: %d bytes in %d objects", bytes, objects)
	if bytes > maxBytes {
		t.Errorf("NewMachine allocated %d bytes, want at most %d", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("NewMachine allocated %d objects, want at most %d", objects, maxObjects)
	}
}
