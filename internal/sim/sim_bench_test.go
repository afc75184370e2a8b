package sim

import "testing"

// BenchmarkEventThroughput measures raw event scheduling+dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	var t Time
	var fire func()
	fire = func() {
		t++
		if t < Time(b.N) {
			s.Schedule(t, fire)
		}
	}
	s.Schedule(0, fire)
	b.ResetTimer()
	s.Run(Time(b.N) + 1)
}

// BenchmarkContDelay measures one process hold as the simulator runs it:
// a continuation that delays itself, one event per resumption.
func BenchmarkContDelay(b *testing.B) {
	s := New(1)
	var k Cont
	n := 0
	k.Init(s, func() {
		if n++; n < b.N {
			k.Delay(1)
		}
	})
	k.Resume()
	b.ResetTimer()
	s.Run(Time(b.N) + 2)
}

// BenchmarkContMailbox measures send+receive round trips between two
// processes: a sender that delays between sends and a receiver that waits
// on the mailbox.
func BenchmarkContMailbox(b *testing.B) {
	s := New(1)
	var m Mailbox
	var rx, tx Cont
	var msg any = "payload"
	got, sent := 0, 0
	rx.Init(s, func() {
		for got < b.N {
			if _, ok := m.Recv(&rx); !ok {
				return
			}
			got++
		}
	})
	tx.Init(s, func() {
		if sent < b.N {
			m.Send(msg)
			sent++
			tx.Delay(1)
		}
	})
	rx.Resume()
	tx.Resume()
	b.ResetTimer()
	s.Run(Time(b.N) + 2)
}

// BenchmarkProcessSwitch measures the goroutine handoff of one
// Delay-resume cycle of a goroutine process, the execution model the
// continuation replaced.
func BenchmarkProcessSwitch(b *testing.B) {
	s := New(1)
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	s.Run(Time(b.N) + 2)
}
