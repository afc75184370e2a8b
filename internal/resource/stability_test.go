package resource

import (
	"testing"

	"ddbm/internal/sim"
)

// TestCPUNumericalStabilityLongRun drives one CPU through tens of
// thousands of overlapping PS jobs and messages and checks that float
// drift never stalls completions and that total busy time stays exactly
// consistent with the work submitted.
func TestCPUNumericalStabilityLongRun(t *testing.T) {
	s := sim.New(42)
	c := NewCPU(s, 1) // 1000 inst/ms
	r := s.Rand()
	var submitted float64
	completed := 0
	const jobs = 20000
	var submit func(i int)
	submit = func(i int) {
		if i >= jobs {
			return
		}
		inst := sim.Uniform(r, 1, 2000)
		submitted += inst
		done := func() {
			completed++
		}
		if i%7 == 0 {
			c.UseMsg(inst, done)
		} else {
			c.UseAsync(inst, done)
		}
		// Staggered arrivals create constantly changing PS shares.
		s.After(sim.Uniform(r, 0, 1), func() { submit(i + 1) })
	}
	submit(0)
	s.Run(1e9)
	if completed != jobs {
		t.Fatalf("completed %d of %d jobs (stalled by drift?)", completed, jobs)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("%d jobs stuck in the CPU", c.QueueLen())
	}
}

// TestDiskStabilityLongRun pushes many interleaved reads/writes through a
// small array and verifies the counts balance.
func TestDiskStabilityLongRun(t *testing.T) {
	s := sim.New(7)
	d := NewDiskArray(s, 3, 10, 30)
	const n = 5000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(float64(i), func() {
			if i%4 == 0 {
				d.WriteAsync(func() { done++ })
			} else {
				readThen(d, func() { done++ })
			}
		})
	}
	s.Run(1e9)
	if done != n {
		t.Fatalf("completed %d of %d disk requests", done, n)
	}
	r, w := d.Counts()
	if r+w != n {
		t.Fatalf("counts %d+%d != %d", r, w, n)
	}
	if u := d.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
}
