package main

import "strings"

// The layers a CPU sample can be credited to. Every simulator module under
// ddbm/internal is a layer of its own (cc's algorithm subpackages fold into
// cc); the rest are the exceptions the fold rules below carve out.
const (
	layerHandoff = "sim.handoff"   // goroutine handoff between sim processes
	layerGC      = "runtime.gc"    // garbage collection and allocation
	layerOther   = "runtime.other" // everything outside ddbm/internal
)

// modulePrefix marks the frames of the simulator's own modules.
const modulePrefix = "ddbm/internal/"

// moduleOf returns the ddbm/internal module a function belongs to — the
// first path element after the prefix, so cc/twopl counts as cc — or "".
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// gcFrames are the runtime's garbage-collection and allocation entry
// points, matched as function-name prefixes. A sample whose stack passes
// through one of them before any simulator frame is GC or malloc work.
var gcFrames = []string{
	"runtime.gc", // gcBgMarkWorker, gcDrain, gcAssistAlloc, gcStart, gcWriteBarrier...
	"runtime.mallocgc",
	"runtime.newobject",
	"runtime.newarray",
	"runtime.makeslice",
	"runtime.growslice",
	"runtime.makemap",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.scanblock",
	"runtime.scanstack",
	"runtime.greyobject",
	"runtime.wbBufFlush",
	"runtime.bgsweep",
	"runtime.sweepone",
	"runtime.bgscavenge",
	"runtime.(*mheap)",
	"runtime.(*mcache)",
	"runtime.(*mcentral)",
	"runtime.(*gcWork)",
	"runtime.(*sweepLocked)",
	"runtime.(*scavengerState)",
}

// handoffFrames are the runtime's channel, park and schedule functions:
// under a sim frame they are the process-handoff machinery (a Proc's wake
// and yield channels), and on a bare scheduler stack they are the switch
// from one parked process goroutine to the next.
var handoffFrames = []string{
	"runtime.chansend",
	"runtime.chanrecv",
	"runtime.selectgo",
	"runtime.gopark",
	"runtime.goready",
	"runtime.park_m",
	"runtime.mcall",
	"runtime.schedule",
	"runtime.findRunnable",
	"runtime.execute",
	"runtime.gogo",
}

func hasPrefixIn(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf credits one sample stack (leaf first) to exactly one layer:
//
//   - the module of its innermost ddbm/internal frame, so frames outside the
//     simulator that it calls — math/rand above all — count toward the
//     layer that called them;
//   - except runtime.gc when a GC or malloc frame lies between the leaf and
//     that frame (or anywhere in a stack with no simulator frame);
//   - and sim.handoff when that frame is in sim and a channel, park or
//     schedule frame lies between it and the leaf, or when the stack is a
//     bare scheduler stack: the scheduler switching goroutines after a
//     process parked, which in a simulation is a Proc handoff.
//
// Everything else is runtime.other.
func layerOf(frames []string) string {
	handoff := false
	for _, fn := range frames {
		if hasPrefixIn(fn, gcFrames) {
			return layerGC
		}
		if mod := moduleOf(fn); mod != "" {
			if mod == "sim" && handoff {
				return layerHandoff
			}
			return mod
		}
		if hasPrefixIn(fn, handoffFrames) {
			handoff = true
		}
	}
	if handoff && allRuntime(frames) {
		return layerHandoff
	}
	return layerOther
}

func allRuntime(frames []string) bool {
	for _, fn := range frames {
		if !strings.HasPrefix(fn, "runtime.") {
			return false
		}
	}
	return true
}

// layerTable holds CPU nanoseconds per layer and phase.
type layerTable map[string]map[string]int64 // layer -> phase -> ns

// foldSamples credits every sample to its layer and phase and scales the
// table to cpuNs, the process CPU time the samples were taken over. The
// kernel delivers profiling signals no faster than its tick, so each
// sample stands for more CPU time than the rate the profile records.
//
// Samples labeled with a simulation in failed are left out, so the table
// covers the same simulations as the commits it is divided by. Samples
// with no sim label (background GC, bare scheduler stacks) cannot be told
// apart; they are kept in the share the labeled samples were kept.
func foldSamples(samples []sample, cpuNs int64, failed map[string]bool) layerTable {
	var total, labeled, dropped int64
	for _, s := range samples {
		total += s.ns
		if s.sim != "" {
			labeled += s.ns
			if failed[s.sim] {
				dropped += s.ns
			}
		}
	}
	if total == 0 {
		return layerTable{}
	}
	scale := float64(cpuNs) / float64(total)
	unlabeledScale := scale
	if labeled > 0 {
		unlabeledScale *= float64(labeled-dropped) / float64(labeled)
	}
	weights := map[string]map[string]float64{}
	for _, s := range samples {
		w := scale
		if s.sim == "" {
			w = unlabeledScale
		} else if failed[s.sim] {
			continue
		}
		l := layerOf(s.frames)
		if weights[l] == nil {
			weights[l] = map[string]float64{}
		}
		weights[l][s.phase] += float64(s.ns) * w
	}
	t := layerTable{}
	for l, byPhase := range weights {
		t[l] = map[string]int64{}
		for p, ns := range byPhase {
			t[l][p] = int64(ns)
		}
	}
	return t
}

// ns returns a layer's nanoseconds in the given phases.
func (t layerTable) ns(layer string, phases ...string) int64 {
	var sum int64
	for _, p := range phases {
		sum += t[layer][p]
	}
	return sum
}
