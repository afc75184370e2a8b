package resource

import (
	"math"
	"testing"
	"testing/quick"

	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestCPUSingleJobServiceTime(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1) // 1 MIPS = 1000 inst/ms
	var done sim.Time
	simtest.Go(s, useStep(c, 8000), // 8K instructions -> 8 ms
		simtest.Do(func() { done = s.Now() }))
	s.Run(100)
	if !almost(done, 8, 1e-9) {
		t.Errorf("8K inst at 1 MIPS finished at %v ms, want 8", done)
	}
}

func TestCPURateScaling(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 10) // 10 MIPS
	var done sim.Time
	simtest.Go(s, useStep(c, 8000), simtest.Do(func() { done = s.Now() }))
	s.Run(100)
	if !almost(done, 0.8, 1e-9) {
		t.Errorf("8K inst at 10 MIPS finished at %v ms, want 0.8", done)
	}
}

func TestCPUProcessorSharingTwoJobs(t *testing.T) {
	// Two equal jobs sharing the CPU each take twice as long.
	s := sim.New(1)
	c := NewCPU(s, 1)
	var d1, d2 sim.Time
	simtest.Go(s, useStep(c, 5000), simtest.Do(func() { d1 = s.Now() }))
	simtest.Go(s, useStep(c, 5000), simtest.Do(func() { d2 = s.Now() }))
	s.Run(100)
	if !almost(d1, 10, 1e-9) || !almost(d2, 10, 1e-9) {
		t.Errorf("PS completions at %v and %v, want both 10", d1, d2)
	}
}

func TestCPUProcessorSharingUnequalJobs(t *testing.T) {
	// Jobs of 2K and 6K: share until the short one finishes at t=4 (each
	// got 2K done), then the long one runs alone: 4K left -> t=8.
	s := sim.New(1)
	c := NewCPU(s, 1)
	var dShort, dLong sim.Time
	simtest.Go(s, useStep(c, 2000), simtest.Do(func() { dShort = s.Now() }))
	simtest.Go(s, useStep(c, 6000), simtest.Do(func() { dLong = s.Now() }))
	s.Run(100)
	if !almost(dShort, 4, 1e-9) {
		t.Errorf("short job at %v, want 4", dShort)
	}
	if !almost(dLong, 8, 1e-9) {
		t.Errorf("long job at %v, want 8", dLong)
	}
}

func TestCPULateArrivalShares(t *testing.T) {
	// Job A (8K) starts at 0; job B (2K) arrives at 2. A runs alone for
	// 2 ms (6K left), then shares: B finishes at 2+4=6, A has 4K left at 6,
	// finishes at 10.
	s := sim.New(1)
	c := NewCPU(s, 1)
	var dA, dB sim.Time
	simtest.Go(s, useStep(c, 8000), simtest.Do(func() { dA = s.Now() }))
	simtest.Go(s, simtest.Delay(2), useStep(c, 2000), simtest.Do(func() { dB = s.Now() }))
	s.Run(100)
	if !almost(dB, 6, 1e-9) {
		t.Errorf("B at %v, want 6", dB)
	}
	if !almost(dA, 10, 1e-9) {
		t.Errorf("A at %v, want 10", dA)
	}
}

func TestCPUMessagePreemptsPS(t *testing.T) {
	// A PS job is running; a message arrives at t=2 and must preempt it
	// entirely: message (1K) done at t=3, PS job (8K) done at 9.
	s := sim.New(1)
	c := NewCPU(s, 1)
	var dJob, dMsg sim.Time
	simtest.Go(s, useStep(c, 8000), simtest.Do(func() { dJob = s.Now() }))
	s.Schedule(2, func() {
		c.UseMsg(1000, func() { dMsg = s.Now() })
	})
	s.Run(100)
	if !almost(dMsg, 3, 1e-9) {
		t.Errorf("message done at %v, want 3", dMsg)
	}
	if !almost(dJob, 9, 1e-9) {
		t.Errorf("job done at %v, want 9 (preempted for 1 ms)", dJob)
	}
}

func TestCPUMessagesFIFO(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.UseMsg(1000, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("message order %v, not FIFO", order)
		}
	}
}

func TestCPUMessagesServedSerially(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		c.UseMsg(2000, func() { times = append(times, s.Now()) })
	}
	s.Run(100)
	want := []sim.Time{2, 4, 6}
	for i := range want {
		if !almost(times[i], want[i], 1e-9) {
			t.Fatalf("serial message completions %v, want %v", times, want)
		}
	}
}

func TestCPUZeroCostImmediate(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	ranPS, ranMsg := false, false
	c.UseAsync(0, func() { ranPS = true })
	c.UseMsg(0, func() { ranMsg = true })
	if !ranPS || !ranMsg {
		t.Error("zero-cost requests should complete synchronously")
	}
	var before sim.Time
	simtest.Go(s,
		simtest.Do(func() { before = s.Now() }),
		func(k *sim.Cont) bool {
			if c.Use(k, 0) {
				t.Error("zero-cost request made the process wait")
			}
			return false
		},
		simtest.Do(func() {
			if s.Now() != before {
				t.Error("zero-cost blocking request advanced time")
			}
		}))
	s.Run(10)
}

func TestCPUUtilization(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	simtest.Go(s, useStep(c, 5000)) // busy [0,5]
	s.Run(10)                       // idle [5,10]
	if !almost(c.Utilization(), 0.5, 1e-9) {
		t.Errorf("utilization %v, want 0.5", c.Utilization())
	}
}

func TestCPUUtilizationAfterMark(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	simtest.Go(s,
		useStep(c, 4000), // [0,4] busy, should be excluded
		simtest.Delay(6), // marks at 5 below; idle [4,10]
		useStep(c, 5000)) // busy [10,15]
	s.Schedule(5, func() { c.MarkWarmup() })
	s.Run(20) // window [5,20]: busy 5 of 15
	if !almost(c.Utilization(), 5.0/15.0, 1e-9) {
		t.Errorf("post-mark utilization %v, want %v", c.Utilization(), 5.0/15.0)
	}
}

func TestCPUMsgUtilizationSeparate(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	c.UseMsg(2000, nil)             // busy [0,2] on messages
	simtest.Go(s, useStep(c, 3000)) // stalls during message; PS [2,5]
	s.Run(10)
	if !almost(c.MsgUtilization(), 0.2, 1e-9) {
		t.Errorf("msg utilization %v, want 0.2", c.MsgUtilization())
	}
	if !almost(c.Utilization(), 0.5, 1e-9) {
		t.Errorf("total utilization %v, want 0.5", c.Utilization())
	}
}

func TestCPUQueueLen(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	c.UseAsync(1000, nil)
	c.UseMsg(1000, nil)
	if c.QueueLen() != 2 {
		t.Errorf("queue len %d, want 2", c.QueueLen())
	}
	s.Run(100)
	if c.QueueLen() != 0 {
		t.Errorf("queue len after drain %d, want 0", c.QueueLen())
	}
}

func TestCPUInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero MIPS did not panic")
		}
	}()
	NewCPU(sim.New(1), 0)
}

func TestCPUWorkConservationProperty(t *testing.T) {
	// Property: for any batch of jobs submitted at t=0, the last completion
	// is exactly (total instructions)/rate, and each job's completion never
	// precedes (its own instructions)/rate.
	f := func(sizes []uint16, msgMask uint8) bool {
		if len(sizes) == 0 || len(sizes) > 8 {
			return true
		}
		s := sim.New(3)
		c := NewCPU(s, 2) // 2000 inst/ms
		var total float64
		last := sim.Time(0)
		ok := true
		for i, sz := range sizes {
			inst := float64(sz%5000) + 1
			total += inst
			own := inst / 2000
			if msgMask&(1<<uint(i%8)) != 0 {
				c.UseMsg(inst, func() {
					if s.Now() < own-1e-9 {
						ok = false
					}
					if s.Now() > last {
						last = s.Now()
					}
				})
			} else {
				c.UseAsync(inst, func() {
					if s.Now() < own-1e-9 {
						ok = false
					}
					if s.Now() > last {
						last = s.Now()
					}
				})
			}
		}
		s.Run(1e9)
		return ok && almost(last, total/2000, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
