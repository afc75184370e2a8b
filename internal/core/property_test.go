package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ddbm/internal/cc"
)

// TestRandomConfigInvariants drives the whole machine over randomized
// small configurations and asserts the invariants that must hold for any
// of them: progress, Little's law, bounded utilizations, no process leaks,
// consistent abort accounting, and (for the safe algorithms) serializable
// histories.
func TestRandomConfigInvariants(t *testing.T) {
	algos := cc.Kinds()
	f := func(seed int64, a, nodes8, ways8, terms8, think8, pages8, repl8 uint8) bool {
		alg := algos[int(a)%len(algos)]
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		cfg.Seed = seed
		cfg.NumProcNodes = []int{1, 2, 4, 8}[nodes8%4]
		if ways := int(ways8) % (cfg.NumProcNodes + 1); ways > 0 && 8%ways == 0 && ways <= cfg.NumProcNodes {
			cfg.PartitionWays = ways
		} else {
			cfg.PartitionWays = 0
			if 8%cfg.NumProcNodes != 0 {
				cfg.NumProcNodes = 4
			}
		}
		cfg.NumTerminals = int(terms8%24) + 2
		cfg.ThinkTimeMs = float64(think8%16) * 250
		cfg.PagesPerFile = int(pages8%200) + 40
		cfg.ReplicaCount = int(repl8%2) + 1
		if cfg.ReplicaCount > cfg.NumProcNodes {
			cfg.ReplicaCount = cfg.NumProcNodes
		}
		cfg.SimTimeMs = 30_000
		cfg.WarmupMs = 6_000
		cfg.Audit = true

		m, err := NewMachine(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		goroutines := settledGoroutines()
		res := m.Run()

		if res.Commits == 0 {
			t.Logf("%v: no commits (cfg %+v)", alg, cfg)
			return false
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Logf("%v: %d goroutines after the run, %d before", alg, n, goroutines)
			return false
		}
		for _, u := range append(append([]float64{}, res.PerNodeCPUUtil...), res.PerNodeDiskUtil...) {
			if u < 0 || u > 1.0001 {
				t.Logf("%v: utilization %v out of range", alg, u)
				return false
			}
		}
		// Little's law within generous tolerance for a 30 s window.
		n := res.ThroughputTPS * (res.MeanResponseMs + cfg.ThinkTimeMs) / 1000
		if n > float64(cfg.NumTerminals)*1.5+2 {
			t.Logf("%v: Little's law broken: %v vs %d terminals", alg, n, cfg.NumTerminals)
			return false
		}
		if math.Abs(res.AbortRatio-float64(res.Aborts)/float64(res.Commits)) > 1e-9 {
			t.Logf("%v: abort ratio inconsistent", alg)
			return false
		}
		if alg != cc.OPT && alg != cc.NoDC && len(res.AuditViolations) != 0 {
			t.Logf("%v: serializability anomaly: %s", alg, res.AuditViolations[0])
			return false
		}
		return true
	}
	cfgq := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(99)),
	}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}
