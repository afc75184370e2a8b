package main

import (
	"fmt"

	"ddbm"
)

// simSpec is one simulation of a workload: a machine configuration plus
// whether to attach the tracer and the probe sampler before Run.
type simSpec struct {
	cfg     ddbm.Config
	observe bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"baseline", "observed", "faults"}

// faultSchedules is the number of crash schedules in one faults pass.
const faultSchedules = 8

// tableFour is the paper's Table 4 machine (8 processing nodes plus a
// host, 128 terminals, 64 files of 300 pages, 2PL with a 1-second Snoop,
// parallel cohorts, centralized 2PC) at a 4-second think time.
func tableFour(seed int64) ddbm.Config {
	cfg := ddbm.DefaultConfig()
	cfg.Algorithm = ddbm.TwoPL
	cfg.ThinkTimeMs = 4000
	cfg.Seed = seed
	return cfg
}

// workloadSpecs returns the simulations one pass of a workload runs, in
// order. Every simulation in a pass gets a fresh machine.
func workloadSpecs(name string, seed int64) ([]simSpec, error) {
	switch name {
	case "baseline":
		// The reference machine, one long run, no observers.
		cfg := tableFour(seed)
		cfg.SimTimeMs, cfg.WarmupMs = 240_000, 30_000
		return []simSpec{{cfg: cfg}}, nil
	case "observed":
		// baseline with every observer on; its Result must equal
		// baseline's on every field the two share.
		specs, _ := workloadSpecs("baseline", seed)
		specs[0].cfg.Breakdown = true
		specs[0].cfg.Audit = true
		specs[0].observe = true
		return specs, nil
	case "faults":
		// Logging, presumed abort, node crashes and message loss and
		// duplication, kept out of the collapse regime (an MTTF of 60 s
		// commits almost nothing). How many commits a crash schedule
		// costs varies a lot from seed to seed, and every per-commit
		// metric varies with it, so a pass sums faultSchedules schedules,
		// on seeds derived from the workload seed: over ten seeds,
		// alloc_bytes_per_commit spread by 0.17 to 0.21 of its median
		// with four schedules and by 0.09 to 0.10 with eight.
		var specs []simSpec
		for k := int64(0); k < faultSchedules; k++ {
			cfg := tableFour(faultSchedules*seed + k)
			cfg.SimTimeMs, cfg.WarmupMs = 480_000, 60_000
			cfg.ModelLogging = true
			cfg.CommitProtocol = ddbm.PresumedAbort
			cfg.Faults.Enabled = true
			cfg.Faults.NodeMTTFMs = 120_000
			cfg.Faults.MTTRMs = 2_000
			cfg.Faults.DetectMs = 500
			cfg.Faults.DropProb = 0.01
			cfg.Faults.DupProb = 0.01
			cfg.Faults.RetransmitDelayMs = 50
			specs = append(specs, simSpec{cfg: cfg})
		}
		return specs, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
