package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		// The innermost ddbm/internal frame names the layer.
		{"innermost module", []string{
			"ddbm/internal/resource.(*CPU).startNext",
			"ddbm/internal/resource.(*CPU).Submit",
			"ddbm/internal/core.(*Machine).runCohort",
			"ddbm/internal/sim.(*Proc).runBody",
			"runtime.goexit",
		}, "resource"},
		{"cc subpackage folds into cc", []string{
			"ddbm/internal/cc/twopl.(*manager).Request",
			"ddbm/internal/core.(*attemptState).access",
		}, "cc"},
		{"closure", []string{
			"ddbm/internal/core.(*Machine).Start.func1",
			"ddbm/internal/sim.(*Proc).runBody",
		}, "core"},
		{"runtime work under a module stays with it", []string{
			"runtime.mapaccess2_fast64",
			"ddbm/internal/sim.(*Sim).SpawnAt",
			"ddbm/internal/core.(*Machine).startCohorts",
		}, "sim"},
		{"no simulator frame", []string{
			"encoding/json.(*encodeState).marshal",
			"main.render",
			"main.main",
		}, layerOther},

		// Channel, park and schedule frames under sim are the handoff.
		{"proc blocks on its yield channel", []string{
			"runtime.lock2",
			"runtime.chansend",
			"runtime.chansend1",
			"ddbm/internal/sim.(*Proc).block",
			"ddbm/internal/sim.(*Proc).Delay",
			"ddbm/internal/core.(*Machine).terminal",
		}, layerHandoff},
		{"scheduler waits for the resumed proc", []string{
			"runtime.gopark",
			"runtime.chanrecv",
			"runtime.chanrecv1",
			"ddbm/internal/sim.(*Sim).resume",
			"ddbm/internal/sim.(*Sim).fire",
			"ddbm/internal/sim.(*Sim).Run",
		}, layerHandoff},
		{"bare scheduler stack between two procs", []string{
			"runtime.findRunnable",
			"runtime.schedule",
			"runtime.park_m",
			"runtime.mcall",
		}, layerHandoff},
		{"channel send outside sim is not a handoff", []string{
			"runtime.chansend",
			"runtime.chansend1",
			"ddbm/internal/core.(*Machine).notify",
		}, "core"},
		{"event-heap work is sim's own", []string{
			"ddbm/internal/sim.(*eventQueue).siftDown",
			"ddbm/internal/sim.(*eventQueue).pop",
			"ddbm/internal/sim.(*Sim).Run",
		}, "sim"},
		{"bare runtime stack without a switch", []string{
			"runtime.usleep",
			"runtime.sysmon",
			"runtime.mstart1",
		}, layerOther},

		// math/rand is credited to whichever layer called it.
		{"rand under workload", []string{
			"math/rand.(*rngSource).Uint64",
			"math/rand.(*rngSource).Int63",
			"math/rand.(*Rand).Int63",
			"math/rand.(*Rand).Float64",
			"ddbm/internal/workload.(*Generator).NewClassPlan",
			"ddbm/internal/core.(*Machine).terminal",
		}, "workload"},
		{"rand under sim's distributions", []string{
			"math/rand.(*Rand).ExpFloat64",
			"ddbm/internal/sim.Exponential",
			"ddbm/internal/resource.(*DiskArray).Read",
		}, "sim"},

		// GC and malloc frames are runtime.gc, wherever they sit.
		{"malloc under a module", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"runtime.makeslice",
			"ddbm/internal/cc.(*LockTable).Reserve",
		}, layerGC},
		{"write barrier", []string{
			"runtime.gcWriteBarrier2",
			"ddbm/internal/obs.(*Tracer).record",
		}, layerGC},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, layerGC},
		{"malloc during a handoff", []string{
			"runtime.mallocgc",
			"runtime.acquireSudog",
			"runtime.chansend",
			"ddbm/internal/sim.(*Proc).block",
		}, layerGC},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFoldSplitsPhasesAndScales(t *testing.T) {
	run := []string{"ddbm/internal/cc.(*LockTable).Lock"}
	setup := []string{"ddbm/internal/db.PlaceScaled"}
	sched := []string{"runtime.schedule", "runtime.park_m", "runtime.mcall"}
	samples := []sample{
		{frames: run, phase: "run", ns: 1000},
		{frames: run, phase: "run", ns: 1000},
		{frames: run, phase: "setup", ns: 1000},
		{frames: setup, phase: "setup", ns: 1000},
		{frames: sched, phase: "", ns: 1000},
	}
	// Five samples over 20 µs of CPU: each stands for 4 µs.
	table := foldSamples(samples, 20_000, nil)
	checks := []struct {
		layer  string
		phases []string
		want   int64
	}{
		{"cc", []string{"run"}, 8000},
		{"cc", []string{"setup"}, 4000},
		{"db", []string{"setup"}, 4000},
		{"db", []string{"run"}, 0},
		{layerHandoff, []string{""}, 4000},
		{"cc", []string{"run", "setup", "export", ""}, 12000},
	}
	for _, c := range checks {
		if got := table.ns(c.layer, c.phases...); got != c.want {
			t.Errorf("%s in %q: %d ns, want %d", c.layer, c.phases, got, c.want)
		}
	}
	var total int64
	for _, byPhase := range table {
		for _, ns := range byPhase {
			total += ns
		}
	}
	if total != 20_000 {
		t.Errorf("table sums to %d ns, want every sample credited once (20000)", total)
	}
}

// TestFoldDropsFailedSimulations: the samples of a simulation that failed
// are left out, so the table covers only the simulations whose commits it
// is divided by; unlabeled samples are kept in the share labeled ones are.
func TestFoldDropsFailedSimulations(t *testing.T) {
	run := []string{"ddbm/internal/cc.(*LockTable).Lock"}
	fault := []string{"ddbm/internal/fault.(*Injector).crash"}
	sched := []string{"runtime.schedule", "runtime.park_m", "runtime.mcall"}
	samples := []sample{
		{frames: run, phase: "run", sim: "1", ns: 1000},
		{frames: run, phase: "run", sim: "1", ns: 1000},
		{frames: run, phase: "setup", sim: "1", ns: 1000},
		{frames: run, phase: "run", sim: "2", ns: 1000},
		{frames: fault, phase: "run", sim: "2", ns: 1000},
		{frames: sched, ns: 1000},
		{frames: sched, ns: 1000},
		{frames: sched, ns: 1000},
		{frames: sched, ns: 1000},
		{frames: sched, ns: 1000},
	}
	// Ten samples over 20 µs of CPU: each stands for 2 µs. Simulation 2
	// failed: two of the five labeled samples go, and with them two
	// fifths of the unlabeled ones.
	table := foldSamples(samples, 20_000, map[string]bool{"2": true})
	checks := []struct {
		layer  string
		phases []string
		want   int64
	}{
		{"cc", []string{"run"}, 4000},
		{"cc", []string{"setup"}, 2000},
		{"fault", []string{"run"}, 0},
		{layerHandoff, []string{""}, 6000},
	}
	for _, c := range checks {
		if got := table.ns(c.layer, c.phases...); got != c.want {
			t.Errorf("%s in %q: %d ns, want %d", c.layer, c.phases, got, c.want)
		}
	}
	if _, ok := table["fault"]; ok {
		t.Errorf("layer fault present, but its only sample belongs to the failed simulation")
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestReadCPUProfile decodes a real runtime/pprof profile: the sim and
// phase labels, nested as pass and simulate nest them, and the function
// names must survive the trip.
func TestReadCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("sim", "3"), func(ctx context.Context) {
		inPhase(ctx, "run", func() { burn(300 * time.Millisecond) })
	})
	pprof.StopCPUProfile()
	samples, err := readCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labeled int
	for _, s := range samples {
		if s.ns <= 0 {
			t.Fatalf("sample with %d ns", s.ns)
		}
		if s.phase != "run" || s.sim != "3" {
			continue
		}
		for _, fn := range s.frames {
			if strings.HasSuffix(fn, ".burn") {
				labeled++
				break
			}
		}
	}
	if labeled == 0 {
		t.Fatalf("no sample labeled sim=3, phase=run inside burn among %d samples", len(samples))
	}
}
