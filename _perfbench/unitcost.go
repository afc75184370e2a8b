package main

import (
	"slices"
	"time"

	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/sim"
)

// The direct-call unit costs time the kernel's two execution models and
// the lock manager's fast path without a machine around them, so the
// traced run's sim.handoff share can be checked against what one process
// switch costs next to one callback event.

// unitCost returns the median over reps batches of the per-operation time
// of body, which performs n operations per call.
func unitCost(n, reps int, body func(n int)) float64 {
	per := make([]float64, reps)
	for i := range per {
		start := time.Now()
		body(n)
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	slices.Sort(per)
	return per[reps/2]
}

// callbackEvents schedules n self-rescheduling callback events and runs
// them: Sim.Schedule plus Run.
func callbackEvents(n int) {
	s := sim.New(1)
	var t sim.Time
	var fire func()
	fire = func() {
		t++
		if t < sim.Time(n) {
			s.Schedule(t, fire)
		}
	}
	s.Schedule(0, fire)
	s.Run(sim.Time(n) + 1)
}

// procSwitches spawns one process that delays n times: Spawn plus
// Proc.Delay, two goroutine handoffs per delay.
func procSwitches(n int) {
	s := sim.New(1)
	s.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
	s.Run(sim.Time(n) + 2)
}

// lockReleases locks one page and releases it n times:
// LockTable.Lock plus ReleaseAll, uncontended.
func lockReleases(n int) {
	lt := cc.NewLockTable()
	co := &cc.CohortMeta{Txn: &cc.TxnMeta{ID: 1, TS: 1}}
	page := db.PageID{File: 0, Page: 0}
	for i := 0; i < n; i++ {
		lt.Lock(co, page, cc.LockX)
		lt.ReleaseAll(co)
	}
}
