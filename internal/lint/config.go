package lint

import "strings"

// Policy scopes one check: which package paths it runs on and whether
// _test.go files are exempt.
type Policy struct {
	Check     string
	SkipTests bool
	// Skip lists package path prefixes where the check is off entirely.
	Skip []string
	// Only, when non-empty, restricts the check to these prefixes.
	Only []string
}

func (p Policy) inScope(pkgPath string) bool {
	for _, pre := range p.Skip {
		if pathMatch(pkgPath, pre) {
			return false
		}
	}
	if len(p.Only) == 0 {
		return true
	}
	for _, pre := range p.Only {
		if pathMatch(pkgPath, pre) {
			return true
		}
	}
	return false
}

// pathMatch reports whether path is prefix itself or a package below it.
func pathMatch(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// Config is the scope table for a whole run.
type Config struct {
	policies map[string]Policy
}

// NewConfig builds a Config from explicit policies; checks without a
// policy run everywhere including tests.
func NewConfig(policies ...Policy) Config {
	m := make(map[string]Policy, len(policies))
	for _, p := range policies {
		m[p.Check] = p
	}
	return Config{policies: m}
}

func (c Config) policy(check string) Policy {
	if p, ok := c.policies[check]; ok {
		return p
	}
	return Policy{Check: check}
}

// DefaultConfig is the repo's scope table, parameterized by module path so
// the fixture harness can reuse it under a fake module name.
//
//   - no-wall-clock: simulation code, the observability layer in
//     internal/obs included, must run on simulated time only. cmd/...
//     (benchmark harnesses time real work) and _test.go files are
//     allowlisted.
//   - no-global-rand: nothing under internal/ or experiments/, tests
//     included, may draw from the global math/rand source; all
//     randomness flows through the per-Simulation seeded *rand.Rand so
//     runs are a pure function of the seed. cmd/... harness tooling is
//     exempt from the direct check — taint-rand guards the boundary.
//   - map-order: non-test simulation code must not let Go's randomized
//     map iteration order reach anything order-sensitive.
//   - no-naked-goroutine: simulation processes are continuations on the
//     caller's goroutine, and only internal/sim may start a goroutine —
//     by a go statement or a goroutine process (Sim.Spawn, kept for the
//     kernel benchmark). Host concurrency anywhere else needs an audited
//     annotation. Test harnesses are exempt.
//   - no-reflect-sort: library code under internal/ must sort with the
//     generic slices helpers, not reflection-based sort.Slice — the
//     reflectlite.Swapper cost is what made the pre-incremental lock
//     manager the simulator's bottleneck. Tests and cmd/ tooling are
//     exempt: they are off the simulation hot path.
//   - taint-wall-clock / taint-rand: the interprocedural complements of
//     no-wall-clock and no-global-rand. Reported in the same scope as
//     the base checks: a call from simulation code into an exempt-scope
//     helper that (transitively) reads the host clock or the global
//     rand source is a finding at the boundary call site.
//   - hotpath-alloc: //ddbmlint:hotpath functions everywhere (tests
//     exempt) must be statically allocation-free transitively — the
//     static twin of TestSteadyStateAllocFree's runtime pins. The
//     breakdown accounting rides this audit end to end: the obs.Ledger
//     spend/fold methods, the per-commit stats.LogHist.Add recording and
//     the cc abort-cause attribution are all hotpath-annotated, and
//     internal/stats sits inside the no-wall-clock scope like the rest
//     of the simulation (the cmd/... allowlist does not cover it), so
//     the histogram layer can neither allocate in steady state nor read
//     host time.
//
// internal/fault and internal/recovery are deliberately absent from every
// Skip list: the fault injector and the restart machinery are simulation
// code in full scope, so the wall-clock ban, the global-rand ban (fault
// schedules draw only from seeded substreams) and the hot-path allocation
// audit all apply to them unreduced. The fixture packages
// testdata/lint/internal/fault and .../recovery pin exactly that: each
// check fires at those package paths.
func DefaultConfig(module string) Config {
	return NewConfig(
		Policy{Check: "no-wall-clock", SkipTests: true, Skip: []string{module + "/cmd"}},
		Policy{Check: "no-global-rand", Skip: []string{module + "/cmd"}},
		Policy{Check: "map-order", SkipTests: true},
		Policy{Check: "no-naked-goroutine", SkipTests: true, Skip: []string{module + "/internal/sim"}},
		Policy{Check: "no-reflect-sort", SkipTests: true, Only: []string{module + "/internal"}},
		Policy{Check: "taint-wall-clock", SkipTests: true, Skip: []string{module + "/cmd"}},
		Policy{Check: "taint-rand", SkipTests: true, Skip: []string{module + "/cmd"}},
		Policy{Check: "hotpath-alloc", SkipTests: true},
	)
}
