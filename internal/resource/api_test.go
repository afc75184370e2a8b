package resource

import (
	"testing"

	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

// useStep is a script step consuming inst instructions of PS work on c.
func useStep(c *CPU, inst float64) simtest.Step {
	return simtest.Wait(func(k *sim.Cont) bool { return c.Use(k, inst) })
}

func TestUseMsgBlocking(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	var done sim.Time
	simtest.Go(s,
		simtest.Wait(func(k *sim.Cont) bool { return c.UseMsgBlocking(k, 3000) }),
		simtest.Do(func() { done = s.Now() }))
	s.Run(100)
	if done != 3 {
		t.Errorf("blocking message finished at %v ms, want 3", done)
	}
}

func TestUseMsgBlockingZeroCost(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1)
	ran := false
	simtest.Go(s,
		func(k *sim.Cont) bool {
			if c.UseMsgBlocking(k, 0) {
				t.Error("zero-cost blocking message made the process wait")
			}
			return false
		},
		simtest.Do(func() {
			ran = true
			if s.Now() != 0 {
				t.Error("zero-cost blocking message advanced time")
			}
		}))
	s.Run(10)
	if !ran {
		t.Fatal("process never resumed")
	}
}

func TestUseMsgBlockingPreemptsPS(t *testing.T) {
	// A blocking message submitted while PS work runs must still preempt.
	s := sim.New(1)
	c := NewCPU(s, 1)
	var msgDone, jobDone sim.Time
	simtest.Go(s, useStep(c, 10000), simtest.Do(func() { jobDone = s.Now() }))
	simtest.Go(s,
		simtest.Delay(2),
		simtest.Wait(func(k *sim.Cont) bool { return c.UseMsgBlocking(k, 1000) }),
		simtest.Do(func() { msgDone = s.Now() }))
	s.Run(100)
	if msgDone != 3 {
		t.Errorf("message done at %v, want 3", msgDone)
	}
	if jobDone != 11 {
		t.Errorf("job done at %v, want 11", jobDone)
	}
}

func TestRateAccessor(t *testing.T) {
	c := NewCPU(sim.New(1), 2.5)
	if c.Rate() != 2500 {
		t.Errorf("rate %v inst/ms, want 2500", c.Rate())
	}
}

func TestNumDisksAccessor(t *testing.T) {
	d := NewDiskArray(sim.New(1), 3, 10, 30)
	if d.NumDisks() != 3 {
		t.Errorf("NumDisks %d", d.NumDisks())
	}
}
