package sim

import "testing"

// receiver is a test process that takes n messages from m, one per
// delivery or inline when they are already queued, recording each with
// the time it was taken.
type receiver struct {
	k    Cont
	m    *Mailbox
	n    int
	got  []any
	when []Time
}

func newReceiver(s *Sim, m *Mailbox, n int) *receiver {
	r := &receiver{m: m, n: n}
	r.k.Init(s, r.step)
	r.k.Resume()
	return r
}

func (r *receiver) step() {
	for len(r.got) < r.n {
		msg, ok := r.m.Recv(&r.k)
		if !ok {
			return
		}
		r.got = append(r.got, msg)
		r.when = append(r.when, r.k.Sim().Now())
	}
}

func TestMailboxSendBeforeRecv(t *testing.T) {
	s := New(1)
	var m Mailbox
	m.Send(1)
	m.Send(2)
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	r := newReceiver(s, &m, 2)
	s.Run(10)
	if len(r.got) != 2 || r.got[0] != 1 || r.got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", r.got)
	}
	if m.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", m.Len())
	}
}

func TestMailboxRecvBlocksUntilSend(t *testing.T) {
	s := New(1)
	var m Mailbox
	r := newReceiver(s, &m, 1)
	s.Schedule(25, func() { m.Send("hello") })
	s.Run(100)
	if len(r.got) != 1 || r.got[0] != "hello" {
		t.Fatalf("got %v, want [hello]", r.got)
	}
	if r.when[0] != 25 {
		t.Errorf("received at %v, want 25", r.when[0])
	}
}

func TestMailboxFIFO(t *testing.T) {
	s := New(1)
	var m Mailbox
	r := newReceiver(s, &m, 5)
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(Time(i+1), func() { m.Send(i) })
	}
	s.Run(100)
	if len(r.got) != 5 {
		t.Fatalf("got %v, want 5 messages", r.got)
	}
	for i, v := range r.got {
		if v != i {
			t.Fatalf("not FIFO: %v", r.got)
		}
	}
}

func TestMailboxBurstWakesOnce(t *testing.T) {
	// Several sends while the receiver waits resume it once, and it takes
	// all of them in that one step.
	s := New(1)
	var m Mailbox
	r := newReceiver(s, &m, 3)
	s.Schedule(5, func() {
		m.Send(1)
		m.Send(2)
		m.Send(3)
	})
	s.Run(100)
	if len(r.got) != 3 {
		t.Fatalf("got %v, want 3 messages", r.got)
	}
	// Dispatched: the receiver's start, the send, one resumption.
	if n := s.EventsDispatched(); n != 3 {
		t.Errorf("%d events dispatched, want 3", n)
	}
}

func TestMailboxMultipleReceiversPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("two receivers on one mailbox did not panic")
		}
	}()
	s := New(1)
	var m Mailbox
	newReceiver(s, &m, 1)
	newReceiver(s, &m, 1)
	s.Run(10)
}
