package sim

import (
	"math"
	"math/bits"
)

// Timer is a continuation with a fixed slot in its simulator's timer
// tree, for a process that keeps one pending firing and moves it often: a
// resource's next completion. Init registers the slot once, at set-up;
// Set arms or moves the firing and Stop withdraws it, each replaying the
// matches on one path of a tree over the registered timers instead of
// sifting through the event heap, where the terminals' think timers and
// restart delays wait.
//
// A timer keeps the (time, seq) order of every other event. Set draws
// exactly one seq, as After and Cont.Delay do, and a target of now goes
// through the same-instant lane. A firing timer is disarmed before its
// step runs, so the step may Set it again. A pending firing outlives the
// Run that armed it, and the next Run fires it.
type Timer struct {
	// ev is the firing: fn is the step. It is queued only in the lane;
	// while the timer is armed in the tree, its key is in the slot's leaf.
	ev   event
	sim  *Sim
	slot int32
}

// Init binds the timer to a simulator and to the step it runs each time
// it fires, and registers its slot. Call it once per timer, at set-up.
func (t *Timer) Init(s *Sim, step func()) {
	t.sim = s
	t.ev = event{fn: step, index: notQueued, owned: true, timer: true}
	t.slot = s.timers.register(&t.ev)
}

// Set arms the timer to fire d milliseconds from now, moving a pending
// firing: the (time, seq) key Stop followed by a fresh arming gives, so
// the dispatch order is the one a cancel and a new event would give.
func (t *Timer) Set(d Time) {
	if d < 0 {
		d = 0
	}
	s := t.sim
	at := s.now + d
	if t.ev.index != notQueued {
		s.dequeue(&t.ev) // a firing waiting in the lane
	}
	if at == s.now {
		s.timers.disarm(t.slot)
		s.enqueue(&t.ev, at)
		return
	}
	s.seq++
	s.timers.set(t.slot, at, s.seq)
}

// Stop withdraws a pending firing, so the step does not run. A timer with
// nothing pending is left alone.
func (t *Timer) Stop() {
	t.sim.timers.disarm(t.slot)
	if t.ev.index != notQueued {
		t.sim.dequeue(&t.ev)
	}
}

// Pending reports whether a firing is scheduled.
func (t *Timer) Pending() bool {
	return t.ev.index != notQueued || t.sim.timers.armed(t.slot)
}

// timerNode is one node of the timer tree: a leaf holds its slot's
// firing key, an inner node a copy of the earliest leaf under it. The
// time is kept as its IEEE-754 bits, which for the non-negative times a
// tree holds order as the times do, so a key compares as one 128-bit
// integer (at, seq). A disarmed leaf holds (noAt, noSeq), which loses
// every match and never comes due.
type timerNode struct {
	at   uint64 // math.Float64bits of the firing time
	seq  uint64
	slot int32
}

const noSeq = math.MaxUint64

var noAt = math.Float64bits(math.Inf(1))

// timerTree is a winner (tournament) tree over the registered timers'
// slots. Node j's children are 2j and 2j+1; slot i's leaf is node
// len(nodes)/2+i, and every inner node holds the key and slot of the
// earliest leaf under it, so nodes[1] is the earliest of all. Moving a
// key replays the matches on its leaf's path to the root: the winner so
// far is carried up, and each level compares it with the sibling's
// winner alone, whose address the leaf fixes in advance, so the walk is
// one chain of branch-free compares.
type timerTree struct {
	nodes []timerNode // nodes[1:]; the leaf count, half the length, is a power of two
	evs   []*event    // by slot: the registered timer's firing
	n     int32       // registered slots
}

// leaves returns the leaf count.
func (t *timerTree) leaves() int { return len(t.nodes) / 2 }

// min returns the earliest leaf's key. A tree with no armed timer returns
// a disarmed one, which never comes due.
func (t *timerTree) min() *timerNode { return &t.nodes[1] }

// register gives e the next slot, disarmed; full leaves double first.
func (t *timerTree) register(e *event) int32 {
	slot := t.n
	if int(slot) == t.leaves() {
		t.grow()
	}
	t.n++
	t.evs[slot] = e
	return slot
}

// grow doubles the leaves (one to start), keeping every key, and replays
// every match.
func (t *timerTree) grow() {
	old := t.leaves()
	n := 2 * old
	if n == 0 {
		n = 1
	}
	nodes := make([]timerNode, 2*n)
	for i := 0; i < n; i++ {
		nodes[n+i] = timerNode{at: noAt, seq: noSeq, slot: int32(i)}
		if i < old {
			nodes[n+i] = t.nodes[old+i]
		}
	}
	for j := n - 1; j > 0; j-- {
		nodes[j] = nodes[2*j]
		if before(&nodes[2*j+1], &nodes[2*j]) == 1 {
			nodes[j] = nodes[2*j+1]
		}
	}
	evs := make([]*event, n)
	copy(evs, t.evs)
	t.nodes, t.evs = nodes, evs
}

// before returns 1 if a fires before b, in the heap's (at, seq) order,
// and 0 otherwise: the borrow out of the 128-bit subtraction a - b.
func before(a, b *timerNode) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// set gives slot a new key and replays its path.
func (t *timerTree) set(slot int32, at Time, seq uint64) {
	leaf := &t.nodes[t.leaves()+int(slot)]
	leaf.at, leaf.seq = math.Float64bits(at), seq
	t.replay(slot)
}

// replay carries the slot's leaf up to the root, at each level taking
// the sibling's winner instead where it fires first (selected by mask,
// not by branch: which side wins is a coin toss to a branch predictor).
func (t *timerTree) replay(slot int32) {
	nodes := t.nodes
	j := len(nodes)/2 + int(slot)
	w := nodes[j]
	for ; j > 1; j >>= 1 {
		sib := &nodes[j^1]
		m := -before(sib, &w)
		w.at ^= (w.at ^ sib.at) & m
		w.seq ^= (w.seq ^ sib.seq) & m
		w.slot ^= (w.slot ^ sib.slot) & int32(m)
		nodes[j>>1] = w
	}
}

func (t *timerTree) armed(slot int32) bool {
	return t.nodes[t.leaves()+int(slot)].seq != noSeq
}

// disarm withdraws slot's key, if it has one.
func (t *timerTree) disarm(slot int32) {
	leaf := &t.nodes[t.leaves()+int(slot)]
	if leaf.seq != noSeq {
		leaf.at, leaf.seq = noAt, noSeq
		t.replay(slot)
	}
}

// take disarms the earliest slot and returns its firing, stamped with
// the time it is due.
func (t *timerTree) take() *event {
	r := t.nodes[1]
	e := t.evs[r.slot]
	e.at, e.seq = math.Float64frombits(r.at), r.seq
	t.disarm(r.slot)
	return e
}
