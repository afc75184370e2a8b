// Package network implements the network manager of paper §3.5: a switch
// with negligible wire time whose only cost is InstPerMsg CPU instructions
// of message-protocol processing on each end, served at the CPUs'
// high-priority FIFO message class.
package network

import (
	"ddbm/internal/obs"
	"ddbm/internal/resource"
	"ddbm/internal/sim"
)

// Handler receives a delivered message. Receivers are long-lived,
// pre-bound objects (free-listed attempt/cohort state in internal/core and
// internal/commit); tag selects among a receiver's message kinds, so one
// object can be the target of several message types without any per-send
// allocation.
type Handler interface {
	HandleMsg(tag int)
}

// DropHandler is implemented by handlers that hold resources (attempt
// references) per in-flight message: when a message to or from a down node
// is discarded instead of delivered, MsgDropped runs in delivery's place so
// the owner can release what the send retained.
type DropHandler interface {
	MsgDropped(tag int)
}

// FaultModel is the network's view of the fault layer. A nil model (the
// default) disables every check at the cost of one pointer test per send.
// Handler messages touching a down node are discarded (MsgDropped); with
// positive loss/duplication probabilities each cross-node handler send
// additionally draws from the model's dedicated stream — a lost message is
// retransmitted from scratch after RetransmitDelayMs, a duplicated one
// adds a pure-load copy. Closure (SendFunc) control messages are exempt
// from all of it: they model out-of-band services (the 2PL Snoop) that
// must outlive any single node.
type FaultModel interface {
	Down(node int) bool
	LoseMsg() bool
	DupMsg() bool
	RetransmitDelayMs() float64
}

// envelope is one in-flight message. Envelopes are free-listed by the
// Network and carry pre-bound sender/deliver steps, so a steady-state send
// allocates nothing: the sender-side CPU step, the receiver-side CPU step,
// and the tracer wrapping that each used to cost a fresh closure all live
// here.
type envelope struct {
	n        *Network
	h        Handler
	tag      int
	from, to int
	start    sim.Time // send time, for the transit trace span
	fn       func()   // legacy closure payload (SendFunc path)

	senderFn  func() // e.senderStep, bound once at creation
	deliverFn func() // e.deliver, bound once at creation
	repostFn  func() // e.repost, bound lazily on the first retransmit
}

// Network routes messages between nodes. Node ids index the cpus slice; by
// convention the host node is the last entry.
type Network struct {
	sim        *sim.Sim
	cpus       []*resource.CPU
	instPerMsg float64
	sent       int64
	free       []*envelope // recycled envelopes
	tr         *obs.Tracer
	ft         FaultModel
	lost       int64 // loss events: drops at down nodes plus coin-flip losses (retransmitted)
}

// New creates a network over the given per-node CPUs.
func New(s *sim.Sim, cpus []*resource.CPU, instPerMsg float64) *Network {
	return &Network{sim: s, cpus: cpus, instPerMsg: instPerMsg}
}

// Reserve pre-builds msgs pooled envelopes. The pool is self-amortising,
// but its growth chases the in-flight message high-water mark, whose
// records arrive too rarely for a warmup to retire deterministically —
// holders with a pinned allocation budget pre-size from the machine's
// concurrency bound instead. Golden-trace safe: no randomness, no
// scheduling.
func (n *Network) Reserve(msgs int) {
	if cap(n.free) < msgs {
		f := make([]*envelope, len(n.free), msgs)
		copy(f, n.free)
		n.free = f
	}
	for len(n.free) < msgs {
		e := &envelope{n: n}
		e.senderFn = e.senderStep
		e.deliverFn = e.deliver
		n.free = append(n.free, e)
	}
}

// alloc takes a recycled envelope from the free-list or makes a fresh one
// with its dispatch steps pre-bound.
func (n *Network) alloc() *envelope {
	if k := len(n.free); k > 0 {
		e := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return e
	}
	e := &envelope{n: n}
	e.senderFn = e.senderStep
	e.deliverFn = e.deliver
	return e
}

// Send transmits a message from node `from` to node `to` and invokes
// h.HandleMsg(tag) at the destination once both ends have paid their
// message-processing CPU cost. Wire time is zero. A message from a node to
// itself is a local procedure call: no CPU cost and no message count, but
// delivery still goes through the event queue so ordering stays causal.
// A nil handler is a pure-load message (e.g. commit acks): both ends pay
// the CPU cost and nothing runs at the destination.
func (n *Network) Send(from, to int, h Handler, tag int) {
	e := n.alloc()
	e.h, e.tag, e.from, e.to = h, tag, from, to
	n.post(e)
}

// SendFunc is the closure-payload variant of Send, kept for cold control
// messages (e.g. the 2PL snoop) and tests. The deliver closure, if any, is
// the caller's allocation; envelope routing is still free-listed.
func (n *Network) SendFunc(from, to int, deliver func()) {
	e := n.alloc()
	e.fn, e.from, e.to = deliver, from, to
	n.post(e)
}

// post routes a filled envelope: self-sends skip cost and accounting,
// everything else pays the two CPU message steps when messages have a
// cost.
func (n *Network) post(e *envelope) {
	if e.from == e.to {
		n.sim.After(0, e.deliverFn)
		return
	}
	if n.ft != nil {
		if n.faultStep(e) {
			return
		}
	}
	n.sent++
	if n.tr != nil {
		e.start = n.sim.Now()
	}
	if n.instPerMsg <= 0 {
		// Free messages still traverse the event queue so that delivery
		// never reenters the sender's current operation.
		n.sim.After(0, e.deliverFn)
		return
	}
	n.cpus[e.from].UseMsg(n.instPerMsg, e.senderFn)
}

// faultStep applies the fault model to one cross-node send; it reports
// whether the envelope was consumed (dropped or parked for retransmit).
// Off the nil-model fast path, so never reached in a fault-free run.
func (n *Network) faultStep(e *envelope) bool {
	ft := n.ft
	if e.fn != nil {
		// Control (closure) messages are exempt from loss and never pay a
		// down node's CPU: crash-clearing that CPU's queues must not be
		// able to swallow an out-of-band service's request or reply.
		if ft.Down(e.from) || ft.Down(e.to) {
			n.sent++
			n.sim.After(0, e.deliverFn)
			return true
		}
		return false
	}
	if ft.Down(e.from) || ft.Down(e.to) {
		n.drop(e)
		return true
	}
	if ft.LoseMsg() {
		// The sender's timeout-and-retransmit, abstracted: the message
		// re-enters the full send pipeline (both CPU ends re-paid) after
		// the retransmission delay.
		n.lost++
		if e.repostFn == nil {
			e.repostFn = e.repost
		}
		n.sim.After(ft.RetransmitDelayMs(), e.repostFn)
		return true
	}
	if ft.DupMsg() {
		// A duplicate shows up as pure load: both ends pay the message
		// CPU cost but nothing runs at the destination, so protocol state
		// sees each logical message exactly once.
		d := n.alloc()
		d.h, d.tag, d.from, d.to = nil, 0, e.from, e.to
		n.sent++
		if n.tr != nil {
			d.start = n.sim.Now()
		}
		if n.instPerMsg <= 0 {
			n.sim.After(0, d.deliverFn)
		} else {
			n.cpus[d.from].UseMsg(n.instPerMsg, d.senderFn)
		}
	}
	return false
}

// repost re-enters the send pipeline after a retransmission delay.
func (e *envelope) repost() {
	e.n.post(e)
}

// drop discards a handler message touching a down node: the envelope is
// recycled and the handler's MsgDropped (if implemented) runs in
// delivery's place so per-message resources are released.
func (n *Network) drop(e *envelope) {
	n.lost++
	h, tag := e.h, e.tag
	e.h, e.fn = nil, nil
	n.free = append(n.free, e)
	if dh, ok := h.(DropHandler); ok {
		dh.MsgDropped(tag)
	}
}

// senderStep runs when the sender's CPU finishes its message-protocol
// work: the receiving end then pays its own cost before delivery.
func (e *envelope) senderStep() {
	n := e.n
	n.cpus[e.to].UseMsg(n.instPerMsg, e.deliverFn)
}

// deliver records the transit span, recycles the envelope, and hands the
// message to its receiver. The envelope is recycled before the receiver
// runs so a handler that immediately sends again reuses it.
func (e *envelope) deliver() {
	n := e.n
	if n.ft != nil && e.fn == nil && e.h != nil && e.from != e.to &&
		(n.ft.Down(e.from) || n.ft.Down(e.to)) {
		// A crash between send and delivery (the zero-cost After(0) path,
		// or a completion racing the crash event at one instant): the
		// message dies with the node.
		n.drop(e)
		return
	}
	if n.tr != nil && e.from != e.to {
		// The transit span covers send to delivery, both ends' message-
		// processing CPU included. Observation only; delivery order is
		// exactly the pre-envelope order.
		n.tr.Message(e.from, e.to, e.start)
	}
	h, tag, fn := e.h, e.tag, e.fn
	e.h, e.fn = nil, nil
	n.free = append(n.free, e)
	switch {
	case h != nil:
		h.HandleMsg(tag)
	case fn != nil:
		fn()
	}
}

// SetTracer attaches an observability tracer recording one span per
// inter-node message transit. Must be set before the simulation runs.
func (n *Network) SetTracer(t *obs.Tracer) { n.tr = t }

// SetFaultModel attaches a fault model consulted on every cross-node
// handler send and delivery. Must be set before the simulation runs; a nil
// model keeps the fault-free fast path.
func (n *Network) SetFaultModel(ft FaultModel) { n.ft = ft }

// Sent returns the number of inter-node messages transmitted.
func (n *Network) Sent() int64 { return n.sent }

// Lost returns the number of loss events: handler messages discarded at a
// down node, plus coin-flip losses that were retransmitted.
func (n *Network) Lost() int64 { return n.lost }

// NumNodes returns the number of attached nodes (including the host).
func (n *Network) NumNodes() int { return len(n.cpus) }
