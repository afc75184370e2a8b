// Package sim implements a discrete-event simulation kernel, the Go
// substitute for the DeNet simulation language in which the original
// Carey/Livny simulator was written.
//
// A Sim owns a virtual clock and an event queue. Events fire in total
// (time, seq) order — FIFO at equal timestamps — and all randomness flows
// through a single seeded source, so every run is fully deterministic.
//
// Simulation processes are explicit state machines. A process that would
// block in DeNet (a hold, a resource wait, a lock wait, a mailbox receive)
// records where it stands, schedules or registers its continuation handle
// (Cont) and returns; the handle's resume event later calls the process's
// step method, which picks up where it stopped. Everything runs on the
// caller's goroutine: a resumption costs one event, not a goroutine
// switch.
//
// The kernel offers two scheduling forms and exports no event handle:
// fire-and-forget callbacks (Schedule, After), which cannot be withdrawn,
// and continuations (Cont), whose pending resumption can be canceled
// through the handle that owns it. No caller can therefore hold an event
// past its firing.
//
// The kernel hot path is allocation-free in steady state: fired callback
// events are recycled through a free-list, and every continuation embeds
// its own resume event, so resuming a process neither allocates an event
// nor a closure. See DESIGN.md ("Kernel performance") for the invariants
// this preserves.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
)

// Time is simulated time in milliseconds.
type Time = float64

// event is one scheduled callback or continuation resumption.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, -1 while not queued
	// owned marks a continuation's embedded resume event: it belongs to
	// its Cont and never passes through the free-list.
	owned bool
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now        Time
	events     eventQueue
	free       []*event // recycled callback events
	seq        uint64
	dispatched uint64
	seed       int64
	rng        *rand.Rand
	procs      []*Proc // goroutine processes, ended with the run
}

// New creates a simulator with the given random seed.
func New(seed int64) *Sim {
	return &Sim{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Substream returns an independent deterministic random source derived from
// the simulator's seed, a stream name, and a numeric id. Substreams let a
// subsystem (the fault injector, for one) consume randomness without
// perturbing the main stream: the workload draws from Rand() in exactly the
// same order whether or not anyone draws from a substream. The derivation
// is a pure function of (seed, name, id), so runs stay reproducible.
func (s *Sim) Substream(name string, id int64) *rand.Rand {
	// FNV-1a over the name, then splitmix64-style finalization folding in
	// the seed and id — cheap, stateless, and well-spread for adjacent ids.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(s.seed) * 0x9e3779b97f4a7c15
	h ^= uint64(id) * 0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// Now returns the current simulated time in milliseconds.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. It must only
// be used from simulation processes and event callbacks.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsDispatched returns the number of events fired so far — the kernel's
// fundamental unit of work, used by the perf harness to report events/sec.
func (s *Sim) EventsDispatched() uint64 { return s.dispatched }

// allocEvent takes a recycled callback event from the free-list or makes a
// fresh one. Fields left over from a previous life are reset.
func (s *Sim) allocEvent() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &event{index: -1} //ddbmlint:allow hotpath-alloc event pool growth to the in-flight high-water mark
}

// releaseEvent returns a fired callback event to the free-list.
// Continuation resume events are embedded in their Cont and never pass
// through here.
func (s *Sim) releaseEvent(e *event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// enqueue stamps the event with the next sequence number and queues it.
// The seq counter advances exactly once per scheduling call, in call order,
// which (together with the total (at, seq) heap order) makes event dispatch
// order a pure function of the call sequence.
func (s *Sim) enqueue(e *event, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now)) //ddbmlint:allow hotpath-alloc kernel-bug panic path; the run is already dead
	}
	s.seq++
	e.at = at
	e.seq = s.seq
	s.events.push(e)
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality. A callback cannot be
// withdrawn; a wait that may need canceling is a Cont.
func (s *Sim) Schedule(at Time, fn func()) {
	e := s.allocEvent()
	e.fn = fn
	s.enqueue(e, at)
}

// After registers fn to run d milliseconds from now.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.now+d, fn)
}

// fire dispatches one popped event. Callback events are recycled before
// their function runs, so a callback that schedules reuses the same
// struct; a continuation's event stays with its Cont.
func (s *Sim) fire(e *event) {
	s.now = e.at
	s.dispatched++
	fn := e.fn
	if !e.owned {
		s.releaseEvent(e)
	}
	fn()
}

// Run executes events until the clock reaches end (exclusive) or the event
// queue drains, then ends every process still waiting (endProcesses), and
// returns the final simulated time.
func (s *Sim) Run(end Time) Time {
	for s.events.len() > 0 {
		e := s.events.min()
		if e.at >= end {
			break
		}
		s.events.pop()
		s.fire(e)
	}
	if s.now < end {
		s.now = end
	}
	s.endProcesses()
	return s.now
}

// endProcesses ends every process still waiting when Run returns: pending
// continuation resumptions leave the queue and goroutine processes are
// dismissed, so nothing a process holds outlives the run. Callback events
// stay queued.
func (s *Sim) endProcesses() {
	var pending []*event
	for _, e := range s.events.items {
		if e.owned {
			pending = append(pending, e)
		}
	}
	for _, e := range pending {
		s.events.remove(e.index)
	}
	for i, p := range s.procs {
		if !p.done {
			p.wake <- false
			<-p.yield
		}
		s.procs[i] = nil
	}
	s.procs = s.procs[:0]
}

// Step executes the single next event if one exists before end; it reports
// whether an event fired. Useful for tests that need fine-grained control.
func (s *Sim) Step(end Time) bool {
	if s.events.len() == 0 || s.events.min().at >= end {
		return false
	}
	s.fire(s.events.pop())
	return true
}

// Cont is a continuation handle: the resumption point of one simulation
// process written as a state machine. It pairs an embedded resume event
// with a step function its owner binds once (a method value on a pooled
// record), so scheduling a resumption allocates nothing. A process waits
// in at most one place at a time, so one embedded event suffices;
// scheduling the handle again while it is pending is a kernel-usage bug
// and panics.
//
// Each point where a goroutine process used to block maps to one use of
// the handle at the same place in the call sequence: Delay(d) schedules
// the step at now+d, Resume schedules it at now (a process start, or a
// wake-up by a resource, lock or mailbox), and a wait that is already
// satisfied continues inline without an event. The (time, seq) order of
// every event is therefore the one the goroutine kernel produced.
type Cont struct {
	ev  event
	sim *Sim
}

// Init binds the handle to a simulator and to the step it runs each time
// it fires. Bind once per pooled owner; rebinding a pending handle is a
// usage bug.
func (k *Cont) Init(s *Sim, step func()) {
	k.sim = s
	k.ev = event{fn: step, index: -1, owned: true}
}

// Sim returns the simulator the handle is bound to.
func (k *Cont) Sim() *Sim { return k.sim }

// Resume schedules the step at the current simulated time, behind every
// event already queued for this instant.
func (k *Cont) Resume() { k.schedule(k.sim.now) }

// Delay schedules the step d milliseconds from now. Even a zero delay goes
// through the event queue, so same-time events keep their FIFO order.
func (k *Cont) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.sim.now + d)
}

func (k *Cont) schedule(at Time) {
	if k.ev.index >= 0 {
		panic("sim: continuation already has a pending resume")
	}
	k.sim.enqueue(&k.ev, at)
}

// Cancel withdraws a pending resumption, so the step does not run — the
// crash-stop of a process, or a resource moving its next completion. A
// handle with nothing pending is left alone.
func (k *Cont) Cancel() {
	if k.ev.index >= 0 {
		k.sim.events.remove(k.ev.index)
	}
}

// Pending reports whether a resumption is scheduled.
func (k *Cont) Pending() bool { return k.ev.index >= 0 }

// Proc is a goroutine-backed process, the kernel's former execution
// model: its body runs on a goroutine of its own and blocks in Delay
// while the scheduler waits, so every resumption costs two goroutine
// switches. The simulator itself runs no Procs. The type remains so that
// the cost of one goroutine switch can be timed against one callback
// event; the no-naked-goroutine lint check keeps Spawn inside this
// package.
type Proc struct {
	k     Cont
	wake  chan bool     // scheduler → process: true runs on, false ends it
	yield chan struct{} // process → scheduler: blocked or finished
	done  bool
}

// Spawn starts fn as a goroutine process at the current simulated time
// (after the current event completes). The name only labels the call
// site. A process still blocked when Run ends is dismissed: its
// goroutine exits, running deferred calls.
func (s *Sim) Spawn(_ string, fn func(p *Proc)) {
	p := &Proc{wake: make(chan bool), yield: make(chan struct{})}
	p.k.Init(s, p.switchTo)
	s.procs = append(s.procs, p)
	go p.run(fn)
	p.k.Resume()
}

func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		p.done = true
		p.yield <- struct{}{}
	}()
	if <-p.wake {
		fn(p)
	}
}

// switchTo hands control to the process and waits until it blocks again
// or finishes.
func (p *Proc) switchTo() {
	p.wake <- true
	<-p.yield
}

// Delay blocks the process for d milliseconds of simulated time.
func (p *Proc) Delay(d Time) {
	p.k.Delay(d)
	p.yield <- struct{}{}
	if !<-p.wake {
		runtime.Goexit()
	}
}
