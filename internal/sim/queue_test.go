package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The differential test holds the kernel's event queue — the heap, the
// same-instant lane, the timer tree, Cont.Cancel, Timer.Set and
// Timer.Stop — to a naive reference that keeps every pending event in one
// slice sorted by (time, seq). Two drivers, seeded alike, issue the same
// random mix against the two: callbacks, continuation resumptions and
// timer firings scheduled from inside firing events at the current
// instant and later (so timers tie with heap events and with each other,
// and timers due now wait in the lane), cancels and moves of
// continuations pending on either structure, timers armed, moved and
// stopped from anywhere including their own step, and Run or Step
// boundaries at and between event times. Now and then a burst crowds the
// current instant, so cancels, moves and stops also reach entries of a
// lane that has grown while they waited in it. Both sides must produce the
// same firing sequence and agree on which handles are pending.

// queueUnderTest is what the driver needs of a queue. Labels name
// scheduling calls, so two firing sequences compare label by label.
// Handles below diffConts are continuations; the rest are timers.
type queueUnderTest interface {
	now() Time
	schedule(at Time, label int)
	delay(c int, d Time, label int)
	cancel(c int)
	set(h int, d Time, label int)
	stop(h int)
	pending(h int) bool
	run(end Time)
	step(end Time) bool
}

const (
	diffConts   = 6
	diffTimers  = 6
	diffHandles = diffConts + diffTimers
)

// record is one line of a side's trace: a firing (label ≥ 0), or a
// checkpoint (label -1) carrying the clock and the pending handles.
type record struct {
	label   int
	at      Time
	pending uint64
}

// diffDriver issues the random mix. Each side has its own driver seeded
// alike, so the two draw the same choices for as long as they fire the
// same events.
type diffDriver struct {
	q     queueUnderTest
	rng   *rand.Rand
	label int
	trace []record
	fired int
}

func (d *diffDriver) nextLabel() int {
	d.label++
	return d.label
}

// gap draws a delay from a small set so that many events tie: most land
// at the current instant or on a whole millisecond.
func (d *diffDriver) gap() Time {
	switch d.rng.Intn(6) {
	case 0, 1:
		return 0
	case 2:
		return 0.5
	default:
		return Time(d.rng.Intn(3) + 1)
	}
}

// fire records a firing and reacts to it with a few random actions.
func (d *diffDriver) fire(label int) {
	d.trace = append(d.trace, record{label: label, at: d.q.now()})
	d.fired++
	if d.fired > 20_000 {
		return // a runaway mix stops reacting and drains
	}
	if d.rng.Intn(64) == 0 {
		d.burst()
	}
	d.act(d.rng.Intn(3))
}

// burst crowds the current instant with 20 to 40 events, callbacks with
// continuation resumptions and timer firings among them, then cancels,
// moves or stops some of the handles.
func (d *diffDriver) burst() {
	for i := 20 + d.rng.Intn(21); i > 0; i-- {
		if d.rng.Intn(4) == 0 {
			d.move(d.rng.Intn(diffHandles), 0)
		} else {
			d.q.schedule(d.q.now(), d.nextLabel())
		}
	}
	for h := 0; h < diffHandles; h++ {
		switch d.rng.Intn(3) {
		case 0:
			d.withdraw(h)
		case 1:
			d.move(h, d.gap())
		}
	}
}

// move schedules handle h's firing d from now, withdrawing a pending one:
// a continuation by Cancel and Delay, a timer by Set alone.
func (d *diffDriver) move(h int, gap Time) {
	if h < diffConts {
		d.q.cancel(h)
		d.q.delay(h, gap, d.nextLabel())
		return
	}
	d.q.set(h, gap, d.nextLabel())
}

// withdraw cancels a continuation or stops a timer.
func (d *diffDriver) withdraw(h int) {
	if h < diffConts {
		d.q.cancel(h)
		return
	}
	d.q.stop(h)
}

func (d *diffDriver) act(n int) {
	for ; n > 0; n-- {
		h := d.rng.Intn(diffHandles)
		switch d.rng.Intn(5) {
		case 0:
			d.q.schedule(d.q.now()+d.gap(), d.nextLabel())
		case 1:
			if !d.q.pending(h) {
				d.move(h, d.gap())
			}
		case 2, 3:
			d.move(h, d.gap())
		default:
			d.withdraw(h)
		}
	}
}

func (d *diffDriver) checkpoint() {
	var mask uint64
	for h := 0; h < diffHandles; h++ {
		if d.q.pending(h) {
			mask |= 1 << h
		}
	}
	d.trace = append(d.trace, record{label: -1, at: d.q.now(), pending: mask})
}

// drive runs rounds of outside actions followed by a Run or a few Steps
// up to a boundary that may fall on an event time, between event times,
// or at the current instant.
func (d *diffDriver) drive(rounds int) {
	for r := 0; r < rounds; r++ {
		if d.rng.Intn(4) == 0 {
			d.burst()
		}
		d.act(d.rng.Intn(4) + 1)
		d.checkpoint()
		end := d.q.now() + []Time{0, 0.5, 1, 1.5, 2, 3}[d.rng.Intn(6)]
		if d.rng.Intn(2) == 0 {
			d.q.run(end)
		} else {
			for i := d.rng.Intn(6); i > 0 && d.q.step(end); i-- {
			}
		}
		d.checkpoint()
	}
}

// kernelQueue runs the mix on a Sim.
type kernelQueue struct {
	s     *Sim
	d     *diffDriver
	ks    [diffConts]Cont
	ts    [diffTimers]Timer
	label [diffHandles]int // label of each handle's pending firing
}

func newKernelQueue(d *diffDriver) *kernelQueue {
	q := &kernelQueue{s: New(1), d: d}
	for c := range q.ks {
		c := c
		q.ks[c].Init(q.s, func() { q.d.fire(q.label[c]) })
	}
	for i := range q.ts {
		h := diffConts + i
		q.ts[i].Init(q.s, func() { q.d.fire(q.label[h]) })
	}
	return q
}

func (q *kernelQueue) now() Time { return q.s.Now() }
func (q *kernelQueue) schedule(at Time, label int) {
	q.s.Schedule(at, func() { q.d.fire(label) })
}
func (q *kernelQueue) delay(c int, d Time, label int) {
	q.label[c] = label
	q.ks[c].Delay(d)
}
func (q *kernelQueue) cancel(c int) { q.ks[c].Cancel() }
func (q *kernelQueue) set(h int, d Time, label int) {
	q.label[h] = label
	q.ts[h-diffConts].Set(d)
}
func (q *kernelQueue) stop(h int) { q.ts[h-diffConts].Stop() }
func (q *kernelQueue) pending(h int) bool {
	if h < diffConts {
		return q.ks[h].Pending()
	}
	return q.ts[h-diffConts].Pending()
}
func (q *kernelQueue) run(end Time)       { q.s.Run(end) }
func (q *kernelQueue) step(end Time) bool { return q.s.Step(end) }

// refEvent is one pending event of the reference: a callback (cont -1)
// or handle cont's firing.
type refEvent struct {
	at    Time
	seq   uint64
	label int
	cont  int
}

// refQueue is the reference: a slice sorted by (time, seq) before every
// dispatch. Cancel and Stop delete the handle's entry; Set is Stop then a
// fresh entry, as Delay makes one. Run ends by dropping the continuations'
// entries; callbacks and timer firings stay for the next Run.
type refQueue struct {
	d      *diffDriver
	clock  Time
	seq    uint64
	events []refEvent
}

func (q *refQueue) now() Time { return q.clock }

func (q *refQueue) add(at Time, label, cont int) {
	q.seq++
	q.events = append(q.events, refEvent{at: at, seq: q.seq, label: label, cont: cont})
}

func (q *refQueue) find(c int) int {
	for i, e := range q.events {
		if e.cont == c {
			return i
		}
	}
	return -1
}

func (q *refQueue) schedule(at Time, label int) { q.add(at, label, -1) }
func (q *refQueue) delay(c int, d Time, label int) {
	if q.find(c) >= 0 {
		panic("reference: continuation already pending")
	}
	q.add(q.clock+d, label, c)
}
func (q *refQueue) cancel(c int) {
	if i := q.find(c); i >= 0 {
		q.events = append(q.events[:i], q.events[i+1:]...)
	}
}
func (q *refQueue) set(h int, d Time, label int) {
	q.stop(h)
	q.delay(h, d, label)
}
func (q *refQueue) stop(h int)         { q.cancel(h) }
func (q *refQueue) pending(h int) bool { return q.find(h) >= 0 }

// pop removes and returns the earliest event due before end.
func (q *refQueue) pop(end Time) (refEvent, bool) {
	sort.Slice(q.events, func(i, j int) bool {
		a, b := q.events[i], q.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	if len(q.events) == 0 || q.events[0].at >= end {
		return refEvent{}, false
	}
	e := q.events[0]
	q.events = q.events[1:]
	q.clock = e.at
	return e, true
}

func (q *refQueue) step(end Time) bool {
	e, ok := q.pop(end)
	if ok {
		q.d.fire(e.label)
	}
	return ok
}

func (q *refQueue) run(end Time) {
	for q.step(end) {
	}
	if q.clock < end {
		q.clock = end
	}
	kept := q.events[:0]
	for _, e := range q.events {
		if e.cont < 0 || e.cont >= diffConts {
			kept = append(kept, e)
		}
	}
	q.events = kept
}

func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		kd := &diffDriver{rng: rand.New(rand.NewSource(seed))}
		kd.q = newKernelQueue(kd)
		rd := &diffDriver{rng: rand.New(rand.NewSource(seed))}
		rd.q = &refQueue{d: rd}
		kd.drive(40)
		rd.drive(40)
		if err := sameTrace(kd.trace, rd.trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// sameTrace reports the first line where the kernel's trace departs from
// the reference's.
func sameTrace(got, want []record) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("line %d: kernel %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("kernel trace has %d lines, reference %d", len(got), len(want))
	}
	return nil
}
