package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"ddbm"
)

// simOut is what one simulation reports: its result, fingerprints, the
// host cost of each phase and its simulated work counts.
type simOut struct {
	res      ddbm.Result
	fp       string // every Result field but Config
	sharedFP string // only the fields an unobserved run also fills in

	setupNs, runNs, exportNs int64
	runCPUNs                 int64  // process CPU time during Run, for the progress log
	allocBytes               uint64 // heap bytes allocated by setup, run and export
	mallocs                  uint64 // heap objects allocated by setup, run and export
	liveHeap                 uint64 // heap in use after the run; 0 when not measured
	events                   uint64 // sim events dispatched
	traceEvents              int
}

// simOpts selects the extra work a simulation does outside its timed
// phases.
type simOpts struct {
	// measureHeap collects garbage before set-up, so each set-up starts
	// from the same heap, and again after the run, where it reads the live
	// heap while the machine and its outputs are still reachable. The
	// traced run leaves it off: a forced collection would be credited to
	// runtime.gc.
	measureHeap bool
	// checkTrace renders the Chrome trace once more, untimed, and
	// validates it with ddbm.CheckChromeTrace.
	checkTrace bool
}

// heapCounters reads the cumulative allocation counters.
type heapCounters struct{ s []metrics.Sample }

func newHeapCounters() *heapCounters {
	return &heapCounters{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

func (h *heapCounters) read() (allocBytes, allocObjects, live uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64(), h.s[2].Value.Uint64()
}

// inPhase runs f under the pprof label phase=name, added to the labels ctx
// carries. Simulation processes are goroutines spawned inside Run, so they
// inherit the run label.
func inPhase(ctx context.Context, name string, f func()) {
	pprof.Do(ctx, pprof.Labels("phase", name), func(context.Context) { f() })
}

// simulate builds, runs and exports one machine, then checks its outputs.
// A panic anywhere in the simulation comes back as an error.
func simulate(ctx context.Context, spec simSpec, opts simOpts, hc *heapCounters) (out simOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if opts.measureHeap {
		runtime.GC()
	}
	goroutines := runtime.NumGoroutine()
	a0, o0, _ := hc.read()

	var (
		m  *ddbm.Machine
		tr *ddbm.Tracer
	)
	start := time.Now()
	inPhase(ctx, "setup", func() {
		m, err = ddbm.NewMachine(spec.cfg)
		if err == nil && spec.observe {
			tr = m.EnableTracing()
			m.EnableProbes(100)
		}
	})
	out.setupNs = time.Since(start).Nanoseconds()
	if err != nil {
		return out, err
	}

	cpu0, err := processCPUNs()
	if err != nil {
		return out, err
	}
	start = time.Now()
	inPhase(ctx, "run", func() { out.res = m.Run() })
	out.runNs = time.Since(start).Nanoseconds()
	cpu1, err := processCPUNs()
	if err != nil {
		return out, err
	}
	out.runCPUNs = cpu1 - cpu0
	a1, o1, _ := hc.read()

	if opts.measureHeap {
		// Collecting here also finishes any cycle the run left in
		// progress, so export does not pay for a share of it.
		runtime.GC()
		_, _, out.liveHeap = hc.read()
	}

	a2, o2, _ := hc.read()
	start = time.Now()
	inPhase(ctx, "export", func() { err = export(io.Discard, m, tr, spec.cfg.NumProcNodes) })
	out.exportNs = time.Since(start).Nanoseconds()
	a3, o3, _ := hc.read()
	if err != nil {
		return out, fmt.Errorf("export: %w", err)
	}
	out.allocBytes = a1 - a0 + a3 - a2
	out.mallocs = o1 - o0 + o3 - o2
	out.events = m.Sim().EventsDispatched()
	if tr != nil {
		out.traceEvents = tr.Len()
	}
	out.fp = fingerprint(&out.res)
	out.sharedFP = fingerprint(&out.res, observerFields...)
	if err := checkResult(&out.res); err != nil {
		return out, err
	}
	if opts.checkTrace && tr != nil {
		var buf bytes.Buffer
		if err := ddbm.WriteChromeTrace(&buf, tr.Events(), spec.cfg.NumProcNodes); err != nil {
			return out, fmt.Errorf("chrome trace: %w", err)
		}
		if err := ddbm.CheckChromeTrace(buf.Bytes()); err != nil {
			return out, fmt.Errorf("chrome trace: %w", err)
		}
	}
	runtime.KeepAlive(m)
	if n := settledGoroutines(goroutines); n != goroutines {
		return out, fmt.Errorf("%d goroutines after the run, %d before", n, goroutines)
	}
	return out, nil
}

// export renders a run's outputs with the program's exporters: the Chrome
// trace when the tracer is on and the breakdown table when Breakdown is.
// A run with neither has nothing to render.
func export(w io.Writer, m *ddbm.Machine, tr *ddbm.Tracer, host int) error {
	if tr != nil {
		if err := ddbm.WriteChromeTrace(w, tr.Events(), host); err != nil {
			return err
		}
	}
	if snap := m.Breakdown(); snap != nil {
		return ddbm.WriteBreakdownCSV(w, snap)
	}
	return nil
}

// settledGoroutines waits up to a second for the goroutine count to fall
// back to want: process goroutines dismissed at Shutdown have handed
// control back but may not have exited yet.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n != want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}
