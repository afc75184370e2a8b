package sim

import (
	"math"
	"testing"
)

// These tests pin the kernel's steady-state allocation counts. They are the
// regression guard for the allocation-free hot path: a change that
// reintroduces a per-event or per-resume allocation (a closure per
// resumption, losing the event free-list, a mailbox that reallocates)
// fails here before it shows up as a throughput regression.

// TestScheduleFireAllocFree: one schedule→dispatch cycle of a callback
// event reuses a free-listed Event and allocates nothing.
func TestScheduleFireAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Prime the free-list with one fired event.
	s.Schedule(s.Now(), fn)
	s.Step(math.MaxFloat64)
	allocs := testing.AllocsPerRun(200, func() {
		s.Schedule(s.Now(), fn)
		s.Step(math.MaxFloat64)
	})
	if allocs != 0 {
		t.Errorf("schedule+fire allocates %v objects per event, want 0", allocs)
	}
}

// TestDelayAllocFree: a process hold — a continuation scheduled with
// Delay, then fired — uses the handle's embedded resume event and
// allocates nothing.
func TestDelayAllocFree(t *testing.T) {
	s := New(1)
	var k Cont
	k.Init(s, func() {})
	k.Delay(1)
	s.Step(math.MaxFloat64)
	allocs := testing.AllocsPerRun(200, func() {
		k.Delay(1)
		s.Step(math.MaxFloat64)
	})
	if allocs != 0 {
		t.Errorf("Delay+fire allocates %v objects per resumption, want 0", allocs)
	}
}

// TestSuspendResumeAllocFree: a process that waits with nothing scheduled
// and is resumed by another event — the path resource completions, lock
// grants and mailbox wakeups ride — allocates nothing per cycle, and
// neither does canceling a pending resumption.
func TestSuspendResumeAllocFree(t *testing.T) {
	s := New(1)
	var sleeper Cont
	sleeper.Init(s, func() {})
	wake := sleeper.Resume
	s.Schedule(s.Now(), wake)
	s.Step(math.MaxFloat64)
	s.Step(math.MaxFloat64)
	allocs := testing.AllocsPerRun(200, func() {
		s.Schedule(s.Now(), wake)
		s.Step(math.MaxFloat64) // the waker
		s.Step(math.MaxFloat64) // the sleeper's step
		sleeper.Delay(1)
		sleeper.Cancel()
	})
	if allocs != 0 {
		t.Errorf("Resume+Cancel cycle allocates %v objects, want 0", allocs)
	}
}

// TestMailboxSteadyStateAllocFree: once the ring is warm, send+receive of
// an already-boxed message allocates nothing (the old slide-forward slice
// reallocated every few operations) — including a receive that waits and
// is resumed by the send.
func TestMailboxSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	var m Mailbox
	var rx Cont
	rx.Init(s, func() {
		if _, ok := m.Recv(&rx); !ok {
			t.Fatal("resumed receiver found no message")
		}
	})
	var msg any = "payload"
	for i := 0; i < 4; i++ {
		m.Send(msg)
	}
	for m.Len() > 0 {
		m.Recv(&rx)
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Send(msg)
		if _, ok := m.Recv(&rx); !ok {
			t.Fatal("message lost")
		}
		if _, ok := m.Recv(&rx); ok {
			t.Fatal("empty mailbox delivered")
		}
		m.Send(msg)
		s.Step(math.MaxFloat64)
	})
	if allocs != 0 {
		t.Errorf("mailbox send+recv allocates %v objects per op, want 0", allocs)
	}
}

// TestMailboxBacklogAllocAmortized: a mailbox that oscillates between empty
// and a bounded backlog settles into its ring and stops allocating.
func TestMailboxBacklogAllocAmortized(t *testing.T) {
	var m Mailbox
	var rx Cont
	var msg any = 1
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			m.Send(msg)
		}
		for i := 0; i < 16; i++ {
			if _, ok := m.Recv(&rx); !ok {
				t.Fatal("message lost")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm 16-deep mailbox burst allocates %v objects per burst, want 0", allocs)
	}
}
