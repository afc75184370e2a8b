// Package simtest runs scripted simulation processes for tests. A script
// is a list of steps that reads like the body of a blocking process — do
// this, wait for that, then do the next thing — and runs as one process
// over a sim.Cont, the way the simulator's own processes do.
package simtest

import "ddbm/internal/sim"

// Step is one stretch of a scripted process. It runs at the current
// simulated time and reports whether the process must wait: true means it
// scheduled k or handed it to whatever will resume it, and the same step
// runs again when k fires, so it can pick up the outcome of its wait;
// false moves on to the next step inline.
type Step func(k *sim.Cont) bool

// Go starts a process that runs steps in order, beginning at the current
// simulated time (after the current event).
func Go(s *sim.Sim, steps ...Step) {
	p := &script{steps: steps}
	p.k.Init(s, p.step)
	p.k.Resume()
}

type script struct {
	k     sim.Cont
	steps []Step
	next  int
}

func (p *script) step() {
	for p.next < len(p.steps) {
		if p.steps[p.next](&p.k) {
			return
		}
		p.next++
	}
}

// Do is a step that runs f and continues inline.
func Do(f func()) Step {
	return func(*sim.Cont) bool {
		f()
		return false
	}
}

// Wait is a step that starts one wait: start hands k to whatever will
// resume it and reports whether the process must wait (false for a wait
// that is already over, such as a zero-cost resource request). The step
// then moves on.
func Wait(start func(k *sim.Cont) bool) Step {
	waited := false
	return func(k *sim.Cont) bool {
		if waited {
			waited = false
			return false
		}
		waited = start(k)
		return waited
	}
}

// When is a step that runs steps in order if cond holds when the process
// reaches it, and does nothing otherwise.
func When(cond func() bool, steps ...Step) Step {
	next := -1
	return func(k *sim.Cont) bool {
		if next < 0 {
			if !cond() {
				return false
			}
			next = 0
		}
		for next < len(steps) {
			if steps[next](k) {
				return true
			}
			next++
		}
		next = -1
		return false
	}
}

// Delay is a step that holds the process for d milliseconds.
func Delay(d sim.Time) Step {
	return Wait(func(k *sim.Cont) bool {
		k.Delay(d)
		return true
	})
}
