// Command perfbench is the repository's benchmark of record. It measures
// what a user of the simulator waits for — host time and memory per
// simulated commit — on three workloads, checks every simulation's result
// against a recorded fingerprint, and with --trace 1 profiles a second run
// and splits its CPU time across the simulator's layers.
//
// Run it from the repository root through its wrapper, which builds it
// inside the checkout:
//
//	bash _perfbench/run.sh --workload baseline --seed 7 --seconds 35 --trace 0
//
// The first line of standard output is the host header, the last line the
// result: {"correct", "attempted", "failed", "metrics"}. README.md in this
// directory documents the workloads, the metrics and the layer map.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	// procs pins GOMAXPROCS. A simulation runs one process at a time, and
	// with a second P the handoffs bounce between threads: on a 2-vCPU VM,
	// five 480-sim-s baseline runs took 1.62-2.24 s at 2 against
	// 1.55-1.68 s at 1.
	procs = 1
	// profileHz is the traced run's CPU sampling rate; the runtime's
	// 100 Hz default gives too few samples to split a run across layers.
	profileHz = 1000
	// minPasses is the fewest measured passes a run reports a median of.
	minPasses = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "baseline", "workload to run: baseline, observed or faults")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a second, profiled run")
	rev := fs.String("rev", "unknown", "git revision of the code under test, for the header")
	record := fs.String("record", "", "write every workload's fingerprints at the default seed to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *record != "" {
		if err := recordAll(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	b, err := newBench(*workload, *seed, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	header := map[string]any{
		"git_rev":    *rev,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"timestamp":  time.Now().UTC().Format(time.RFC3339),
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
	}
	if err := writeJSONLine(stdout, map[string]any{"header": header}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var ms []metric
	if *trace == 0 {
		ms, err = b.endToEnd(*seconds)
	} else {
		ms, err = b.perLayer(*seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type metric struct {
	name, unit string
	value      float64
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// bench runs one workload's simulations back to back on one goroutine — a
// closed loop with a single caller — and counts every simulation as one
// operation.
type bench struct {
	name   string
	seed   int64
	specs  []simSpec
	want   []string // expected fingerprint per simulation; "" until known
	shared string   // observed: the fingerprint baseline gives at this seed
	hc     *heapCounters
	stderr io.Writer

	attempted, failed int
	// failedSims holds the pprof sim label of every simulation that
	// failed, so the traced run can leave its samples out.
	failedSims map[string]bool
}

func newBench(name string, seed int64, stderr io.Writer) (*bench, error) {
	specs, err := workloadSpecs(name, seed)
	if err != nil {
		return nil, err
	}
	var rec map[string][]string
	if seed == defaultSeed {
		if rec, err = recordedFingerprints(); err != nil {
			return nil, err
		}
		if len(rec[name]) != len(specs) {
			return nil, fmt.Errorf("fingerprints.json has %d fingerprints for %s, want %d", len(rec[name]), name, len(specs))
		}
	}
	want := func(name string, n int) []string {
		w := make([]string, n)
		copy(w, rec[name])
		return w
	}
	b := &bench{name: name, seed: seed, specs: specs, want: want(name, len(specs)), hc: newHeapCounters(),
		stderr: stderr, failedSims: map[string]bool{}}
	if name == "observed" {
		// Observers must not perturb the simulation: observed's Result
		// must equal baseline's on every field the two share.
		base, _ := workloadSpecs("baseline", seed)
		ref := &bench{name: "baseline", seed: seed, specs: base, want: want("baseline", 1), hc: b.hc,
			stderr: stderr, failedSims: b.failedSims}
		outs := make(runs, 1)
		ref.pass(simOpts{}, outs)
		b.attempted, b.failed = ref.attempted, ref.failed
		if len(outs[0]) == 1 {
			b.shared = outs[0][0].fp
		}
	}
	return b, nil
}

// runs holds, per simulation of a workload's pass, the outputs of its
// repetitions that passed.
type runs [][]simOut

// pass runs every simulation of one pass and checks it, adding the outputs
// of those that pass to r. Fingerprints not yet known (at a seed other
// than the recorded one) are learned from the first pass that produces
// them; every later pass must reproduce them. The cost of a wrong result
// is not measured. Each simulation runs under the pprof label sim=<its
// attempt number>, which the processes it spawns inherit.
func (b *bench) pass(opts simOpts, r runs) {
	for i, spec := range b.specs {
		b.attempted++
		label := strconv.Itoa(b.attempted)
		var out simOut
		var err error
		pprof.Do(context.Background(), pprof.Labels("sim", label), func(ctx context.Context) {
			out, err = simulate(ctx, spec, opts, b.hc)
		})
		if err == nil {
			err = b.verify(i, &out)
		}
		if err != nil {
			b.failed++
			b.failedSims[label] = true
			fmt.Fprintf(b.stderr, "FAIL %s seed %d simulation %d: %v\n", b.name, b.seed, i, err)
			continue
		}
		r[i] = append(r[i], out)
	}
}

func (b *bench) verify(i int, out *simOut) error {
	if b.want[i] == "" {
		b.want[i] = out.fp
	} else if out.fp != b.want[i] {
		return fmt.Errorf("result fingerprint %s, want %s", out.fp, b.want[i])
	}
	if b.name == "observed" && out.sharedFP != b.shared {
		return fmt.Errorf("observers changed the result: shared-field fingerprint %s, baseline gives %s", out.sharedFP, b.shared)
	}
	return nil
}

// measure runs an unmeasured warm-up pass, then measured passes until
// seconds have passed and at least minPasses were measured.
func (b *bench) measure(seconds float64) (runs, error) {
	start := time.Now()
	b.pass(simOpts{measureHeap: true, checkTrace: true}, make(runs, len(b.specs)))
	r := make(runs, len(b.specs))
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		b.pass(simOpts{measureHeap: true}, r)
		fmt.Fprintf(b.stderr, "%s pass %d: %s\n", b.name, n+1, r.last())
	}
	if r.commits() == 0 {
		return nil, errors.New("no simulation passed and committed a transaction")
	}
	for i, reps := range r {
		if len(reps) > 0 && collapsed(&reps[0].res) {
			fmt.Fprintf(b.stderr, "%s seed %d simulation %d collapsed: %d commits in %.0f measured seconds\n",
				b.name, b.seed, i, reps[0].res.Commits, reps[0].res.MeasuredMs/1000)
		}
	}
	return r, nil
}

// last describes the latest repetition of every simulation.
func (r runs) last() string {
	var parts []string
	for _, reps := range r {
		if len(reps) == 0 {
			parts = append(parts, "failed")
			continue
		}
		o := reps[len(reps)-1]
		parts = append(parts, fmt.Sprintf("%d commits, setup %.4f s, run %.3f s (cpu %.3f s), export %.4f s",
			o.res.Commits, float64(o.setupNs)/1e9, float64(o.runNs)/1e9, float64(o.runCPUNs)/1e9, float64(o.exportNs)/1e9))
	}
	return strings.Join(parts, "; ")
}

// commits sums the measured commits of one repetition of every simulation
// that passed; a simulation commits the same number every time.
func (r runs) commits() int64 {
	var n int64
	for _, reps := range r {
		if len(reps) > 0 {
			n += reps[0].res.Commits
		}
	}
	return n
}

// medians returns, for every simulation that passed at least once, the
// median value f takes across its repetitions.
func (r runs) medians(f func(*simOut) float64) []float64 {
	var m []float64
	for _, reps := range r {
		if len(reps) == 0 {
			continue
		}
		v := make([]float64, len(reps))
		for i := range reps {
			v[i] = f(&reps[i])
		}
		m = append(m, median(v))
	}
	return m
}

// all sums f over every repetition of every simulation.
func (r runs) all(f func(*simOut) int64) int64 {
	var sum int64
	for _, reps := range r {
		for i := range reps {
			sum += f(&reps[i])
		}
	}
	return sum
}

func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func runNs(o *simOut) float64   { return float64(o.runNs) }
func setupNs(o *simOut) float64 { return float64(o.setupNs) }

// endToEnd measures the untraced metrics: each simulation's median over
// its repetitions, summed over a pass's simulations (live_heap_bytes
// takes the largest instead).
func (b *bench) endToEnd(seconds float64) ([]metric, error) {
	r, err := b.measure(seconds)
	if err != nil {
		return nil, err
	}
	commits := float64(r.commits())
	return []metric{
		{"wall_ns_per_commit", "ns", sum(r.medians(runNs)) / commits},
		{"setup_s", "s", sum(r.medians(setupNs)) / 1e9},
		{"total_ns_per_commit", "ns", sum(r.medians(func(o *simOut) float64 {
			return float64(o.setupNs + o.runNs + o.exportNs)
		})) / commits},
		{"alloc_bytes_per_commit", "bytes", sum(r.medians(func(o *simOut) float64 { return float64(o.allocBytes) })) / commits},
		{"live_heap_bytes", "bytes", slices.Max(r.medians(func(o *simOut) float64 { return float64(o.liveHeap) }))},
	}, nil
}

// runtimeCounters are the runtime/metrics the traced run reads before and
// after its passes.
var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// perLayer measures the untraced run for half the time, then profiles a
// second run at the same seed for the other half and folds its samples
// into layers. It ends with the direct-call unit costs.
func (b *bench) perLayer(seconds float64) ([]metric, error) {
	untraced, err := b.measure(seconds / 2)
	if err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	// StartCPUProfile sets the runtime's default rate and, finding a rate
	// already set, prints a warning to standard error and keeps ours.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	before := readRuntime()
	cpu0, err := processCPUNs()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	traced := make(runs, len(b.specs))
	for n := 0; n < 2 || time.Since(start).Seconds() < seconds/2; n++ {
		b.pass(simOpts{}, traced)
	}
	cpu1, err := processCPUNs()
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	pprof.StopCPUProfile()

	samples, err := readCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	// The fold and every count below cover the same simulations: the
	// traced repetitions that passed.
	layers := foldSamples(samples, cpu1-cpu0, b.failedSims)
	commits := traced.all(func(o *simOut) int64 { return o.res.Commits })
	if commits == 0 {
		return nil, errors.New("the traced run committed no transactions")
	}
	passes := float64(traced.all(func(*simOut) int64 { return 1 })) / float64(len(b.specs))
	count := func(f func(*simOut) int64) float64 { return float64(traced.all(f)) }
	pc := func(x float64) float64 { return x / float64(commits) }
	runLayerNs := func(layer string) float64 { return pc(float64(layers.ns(layer, "run"))) }
	setupLayerNs := func(layer string) float64 { return float64(layers.ns(layer, "setup")) / passes }

	gcCPU := before[0].Value.Float64()
	totalCPU := before[1].Value.Float64()
	gcCPU, totalCPU = after[0].Value.Float64()-gcCPU, after[1].Value.Float64()-totalCPU
	latBefore, latAfter := before[2].Value.Float64Histogram(), after[2].Value.Float64Histogram()

	// The run phase is every run-labeled sample plus the bare scheduler
	// stacks, which carry no phase label but only occur while processes
	// run.
	runPhaseNs := layers.ns(layerHandoff, "")
	for l := range layers {
		runPhaseNs += layers.ns(l, "run")
	}
	untracedRunNs := sum(untraced.medians(runNs))

	ms := []metric{
		{"sim.self_ns_per_commit", "ns", runLayerNs("sim")},
		{"sim.handoff_ns_per_commit", "ns", pc(float64(layers.ns(layerHandoff, "run", "")))},
		{"sim.events_per_commit", "events", pc(count(func(o *simOut) int64 { return int64(o.events) }))},
		{"sim.events_per_wall_s", "events/s", sum(untraced.medians(func(o *simOut) float64 { return float64(o.events) })) /
			(untracedRunNs / 1e9)},
		{"sim.sched_latency_p50_ns", "ns", histQuantile(latBefore, latAfter, 0.50) * 1e9},
		{"sim.sched_latency_p99_ns", "ns", histQuantile(latBefore, latAfter, 0.99) * 1e9},
		{"resource.self_ns_per_commit", "ns", runLayerNs("resource")},
		{"core.self_ns_per_commit", "ns", runLayerNs("core")},
		{"stats.self_ns_per_commit", "ns", runLayerNs("stats")},
		{"workload.self_ns_per_commit", "ns", runLayerNs("workload")},
		{"cc.self_ns_per_commit", "ns", runLayerNs("cc")},
		{"cc.setup_ns", "ns", setupLayerNs("cc")},
		{"cc.block_episodes_per_commit", "episodes", pc(count(func(o *simOut) int64 { return o.res.BlockCount }))},
		{"cc.commit_ratio", "ratio", float64(commits) / (float64(commits) + count(func(o *simOut) int64 { return o.res.Aborts }))},
		{"db.setup_ns", "ns", setupLayerNs("db")},
		{"network.self_ns_per_commit", "ns", runLayerNs("network")},
		{"network.messages_per_commit", "messages", pc(count(func(o *simOut) int64 { return o.res.MessagesSent }))},
		{"commit.self_ns_per_commit", "ns", runLayerNs("commit")},
		{"commit.log_forces_per_commit", "forces", pc(count(func(o *simOut) int64 { return o.res.LogForces }))},
		{"fault.self_ns_per_commit", "ns", runLayerNs("fault")},
		{"recovery.self_ns_per_commit", "ns", runLayerNs("recovery")},
		{"fault.crashes", "crashes", count(func(o *simOut) int64 { return o.res.Crashes }) / passes},
		{"fault.messages_lost", "messages", count(func(o *simOut) int64 { return o.res.MessagesLost }) / passes},
		{"obs.self_ns_per_commit", "ns", runLayerNs("obs")},
		{"obs.trace_events_per_commit", "events", pc(count(func(o *simOut) int64 { return int64(o.traceEvents) }))},
		{"obs.export_s", "s", sum(untraced.medians(func(o *simOut) float64 { return float64(o.exportNs) })) / 1e9},
		{"audit.self_ns_per_commit", "ns", runLayerNs("audit")},
		{"runtime.gc_ns_per_commit", "ns", pc(float64(layers.ns(layerGC, "setup", "run", "export", "")))},
		{"runtime.gc_cpu_frac", "fraction", gcCPU / totalCPU},
		{"runtime.mallocs_per_commit", "objects", pc(count(func(o *simOut) int64 { return int64(o.mallocs) }))},
		{"runtime.other_ns_per_commit", "ns", runLayerNs(layerOther)},
		{"trace.overhead_ratio", "ratio", sum(traced.medians(runNs)) / float64(traced.commits()) /
			(untracedRunNs / float64(untraced.commits()))},
		{"trace.residue_frac", "fraction", 1 - float64(runPhaseNs)/float64(traced.all(func(o *simOut) int64 { return o.runNs }))},
		{"sim.callback_event_ns", "ns", unitCost(1<<20, 7, callbackEvents)},
		{"sim.proc_switch_ns", "ns", unitCost(1<<16, 7, procSwitches)},
		{"cc.lock_release_ns", "ns", unitCost(1<<18, 7, lockReleases)},
	}
	printLayers(b.stderr, b.name, layers, commits, passes)
	return ms, nil
}

// histQuantile returns the q quantile of the observations a cumulative
// runtime histogram gained between two reads, as the upper boundary of
// the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum > target {
			return after.Buckets[i+1]
		}
	}
	return 0
}

// printLayers writes the full layer-by-phase table of the traced run.
func printLayers(w io.Writer, name string, t layerTable, commits int64, passes float64) {
	var total int64
	names := make([]string, 0, len(t))
	for l, byPhase := range t {
		names = append(names, l)
		for _, ns := range byPhase {
			total += ns
		}
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(t.ns(b, "run"), t.ns(a, "run")) })
	fmt.Fprintf(w, "%s traced: %d commits over %.0f passes, %.3f s sampled\n", name, commits, passes, float64(total)/1e9)
	fmt.Fprintf(w, "%-16s %14s %8s %14s %14s %14s\n", "layer", "run ns/commit", "run %", "setup ns/pass", "export ns/pass", "unlabeled ns")
	for _, l := range names {
		run := t.ns(l, "run")
		fmt.Fprintf(w, "%-16s %14.0f %7.1f%% %14.0f %14.0f %14d\n", l,
			float64(run)/float64(commits), 100*float64(run)/float64(total),
			float64(t.ns(l, "setup"))/passes, float64(t.ns(l, "export"))/passes, t.ns(l, ""))
	}
}

// recordAll runs one pass of every workload at the default seed and
// writes their fingerprints.
func recordAll(path string) error {
	rec := map[string][]string{}
	hc := newHeapCounters()
	for _, name := range workloadNames {
		specs, err := workloadSpecs(name, defaultSeed)
		if err != nil {
			return err
		}
		for i, spec := range specs {
			out, err := simulate(context.Background(), spec, simOpts{checkTrace: true}, hc)
			if err != nil {
				return fmt.Errorf("%s simulation %d: %w", name, i, err)
			}
			rec[name] = append(rec[name], out.fp)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
