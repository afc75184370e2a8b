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
