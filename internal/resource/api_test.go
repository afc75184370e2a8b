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

// TestServiceSurvivesRunBoundary pins that a second Run completes the work
// in service when the first returned: a CPU job and a disk write, each
// waiting on its resource's completion timer when Run(10) ends, finish at
// their due times during Run(100).
func TestServiceSurvivesRunBoundary(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s, 1) // 1,000 instructions per ms
	d := NewDiskArray(s, 1, 15, 15)
	cpuAt, diskAt := sim.Time(-1), sim.Time(-1)
	c.UseAsync(20_000, func() { cpuAt = s.Now() })
	d.WriteAsync(func() { diskAt = s.Now() })
	s.Run(10)
	if cpuAt >= 0 || diskAt >= 0 {
		t.Fatalf("completions before the boundary: cpu %v, disk %v", cpuAt, diskAt)
	}
	s.Run(100)
	if cpuAt != 20 || diskAt != 15 {
		t.Fatalf("after Run(100): cpu done at %v (want 20), disk at %v (want 15)", cpuAt, diskAt)
	}
}
