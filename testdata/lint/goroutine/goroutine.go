// Package goroutine exercises the no-naked-goroutine check.
package goroutine

import "ddbm/internal/sim"

func Spawn(f func()) {
	go f() // want "goroutine outside internal/sim"
}

func SpawnAudited(ch chan int) {
	//ddbmlint:allow no-naked-goroutine fixture: the result channel fully synchronizes the handoff
	go func() { ch <- 1 }()
}

func SpawnProcess(s *sim.Sim) {
	s.Spawn("p", func(p *sim.Proc) { p.Delay(1) }) // want "goroutine process (Sim.Spawn) outside internal/sim"
}

func Resume(s *sim.Sim) {
	var k sim.Cont
	k.Init(s, func() {})
	k.Resume()
}
