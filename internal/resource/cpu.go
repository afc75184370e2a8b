// Package resource models the physical resources of a database machine
// node: a CPU whose service discipline is first-come-first-served for
// message processing (at higher, preemptive priority) and processor sharing
// for all other work, plus an array of disks with FIFO queues and
// write-over-read priority (paper §3.4, Table 3).
package resource

import (
	"ddbm/internal/obs"
	"ddbm/internal/sim"
)

// instruction bookkeeping tolerance: completions within this many
// instructions of zero are treated as finished to absorb float drift.
const instEpsilon = 1e-6

// cpuJob is one unit of CPU work, held by value in the CPU's queues so
// steady-state submission allocates nothing. Completion either resumes
// the waiting process's continuation k (the Use path — no closure needed)
// or invokes done (the async path — callers pass pre-bound functions).
type cpuJob struct {
	remaining float64 // instructions left
	done      func()
	k         *sim.Cont
}

// finish delivers the job's completion to its owner.
func (j *cpuJob) finish() {
	if j.k != nil {
		j.k.Resume()
		return
	}
	if j.done != nil {
		j.done()
	}
}

// CPU models a single processor. Message-class requests are served one at a
// time in FIFO order and preempt processor-sharing work entirely;
// processor-sharing requests divide the CPU equally among themselves
// whenever no message is being processed.
//
// All queues hold jobs by value and reuse their backing storage (the PS
// slice compacts in place; the message queue is a power-of-two ring), so
// after the queues reach their high-water capacity the CPU allocates
// nothing per job.
type CPU struct {
	sim  *sim.Sim
	rate float64 // instructions per millisecond

	ps []cpuJob

	msgs    []cpuJob // ring storage; len(msgs) is zero or a power of two
	msgHead int      // index of the oldest message job
	msgLen  int      // message jobs currently queued

	// finScratch collects the jobs finishing in one complete() call so
	// their callbacks run after the next completion is rescheduled; the
	// buffer is reused across calls (complete never re-enters itself —
	// callbacks only schedule future events).
	finScratch []cpuJob

	lastT sim.Time
	// next fires complete when the earliest job is due; reschedule moves
	// it on every state change. Like every pending timer, it is disarmed
	// when Sim.Run returns.
	next sim.Timer

	busyPS  float64 // ms spent on processor-sharing work
	busyMsg float64 // ms spent on message processing
	markPS  float64 // snapshots taken at warmup
	markMsg float64
	markT   sim.Time

	// tr, when non-nil, records one obs span per busy period (first job
	// arrival to queue drain); node tags the spans. busyStart is a plain
	// timestamp, not a span handle, so nothing here outlives its span.
	tr        *obs.Tracer
	node      int
	busyStart sim.Time
}

// NewCPU creates a CPU executing at the given MIPS rating.
func NewCPU(s *sim.Sim, mips float64) *CPU {
	if mips <= 0 {
		panic("resource: CPU MIPS must be positive")
	}
	c := &CPU{sim: s, rate: mips * 1000, lastT: s.Now()}
	c.next.Init(s, c.complete)
	return c
}

// Rate returns the CPU speed in instructions per millisecond.
func (c *CPU) Rate() float64 { return c.rate }

// Reserve pre-sizes the CPU's queues for up to jobs concurrent jobs of
// each class. The queues are self-amortising, but their growth is driven
// by backlog records that arrive too rarely for a warmup to retire
// deterministically — holders with a pinned allocation budget pre-size
// from their concurrency bound instead. Golden-trace safe: no randomness,
// no scheduling.
func (c *CPU) Reserve(jobs int) {
	if cap(c.ps) < jobs {
		ps := make([]cpuJob, len(c.ps), jobs)
		copy(ps, c.ps)
		c.ps = ps
	}
	if cap(c.finScratch) < jobs {
		c.finScratch = make([]cpuJob, 0, jobs)
	}
	if len(c.msgs) < jobs {
		newCap := 8
		for newCap < jobs {
			newCap *= 2
		}
		buf := make([]cpuJob, newCap)
		for i := 0; i < c.msgLen; i++ {
			buf[i] = c.msgs[(c.msgHead+i)&(len(c.msgs)-1)]
		}
		c.msgs = buf
		c.msgHead = 0
	}
}

// SetTrace attaches an observability tracer recording this CPU's busy
// periods, tagged with the given node id. Tracing is observation only and
// must be configured before the simulation runs.
func (c *CPU) SetTrace(t *obs.Tracer, node int) {
	c.tr = t
	c.node = node
}

// noteArrival opens a busy period when a job arrives at an idle CPU.
func (c *CPU) noteArrival() {
	if c.tr != nil && len(c.ps)+c.msgLen == 1 {
		c.busyStart = c.sim.Now()
	}
}

// Use consumes inst instructions of processor-sharing service on behalf of
// the process whose continuation is k. It reports whether the process
// must wait: k is then resumed when the work completes. Zero or negative
// cost reports false and the process continues inline (the paper sets
// several overheads to zero).
func (c *CPU) Use(k *sim.Cont, inst float64) bool {
	if inst <= 0 {
		return false
	}
	c.submitPS(cpuJob{remaining: inst, k: k})
	return true
}

// UseAsync submits processor-sharing work and invokes done on completion
// without blocking the caller. A zero cost invokes done immediately.
// done must be pre-bound by the caller if the call site is hot.
func (c *CPU) UseAsync(inst float64, done func()) {
	if inst <= 0 {
		if done != nil {
			done()
		}
		return
	}
	c.submitPS(cpuJob{remaining: inst, done: done})
}

// UseMsg submits message-processing work: FIFO order, one at a time, at a
// priority that preempts all processor-sharing work. done runs on
// completion; a zero cost invokes it immediately.
func (c *CPU) UseMsg(inst float64, done func()) {
	if inst <= 0 {
		if done != nil {
			done()
		}
		return
	}
	c.submitMsg(cpuJob{remaining: inst, done: done})
}

func (c *CPU) submitPS(j cpuJob) {
	c.advance()
	c.ps = append(c.ps, j)
	c.noteArrival()
	c.reschedule()
}

func (c *CPU) submitMsg(j cpuJob) {
	c.advance()
	if c.msgLen == len(c.msgs) {
		c.growMsgs()
	}
	c.msgs[(c.msgHead+c.msgLen)&(len(c.msgs)-1)] = j
	c.msgLen++
	c.noteArrival()
	c.reschedule()
}

// growMsgs doubles the message ring (minimum 8 slots), unwrapping the live
// window to the front of the new buffer.
func (c *CPU) growMsgs() {
	newCap := 2 * len(c.msgs)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]cpuJob, newCap)
	for i := 0; i < c.msgLen; i++ {
		buf[i] = c.msgs[(c.msgHead+i)&(len(c.msgs)-1)]
	}
	c.msgs = buf
	c.msgHead = 0
}

// advance charges elapsed time since the last state change to the active
// jobs: the head message exclusively, or the PS jobs in equal shares.
func (c *CPU) advance() {
	now := c.sim.Now()
	dt := now - c.lastT
	c.lastT = now
	if dt <= 0 {
		return
	}
	if c.msgLen > 0 {
		c.msgs[c.msgHead].remaining -= dt * c.rate
		c.busyMsg += dt
		return
	}
	if n := len(c.ps); n > 0 {
		share := dt * c.rate / float64(n)
		for i := range c.ps {
			c.ps[i].remaining -= share
		}
		c.busyPS += dt
	}
}

// reschedule moves the next completion to the earliest job's finish
// time; an idle CPU has none.
func (c *CPU) reschedule() {
	var dt float64
	switch {
	case c.msgLen > 0:
		dt = c.msgs[c.msgHead].remaining / c.rate
	case len(c.ps) > 0:
		min := c.ps[0].remaining
		for i := 1; i < len(c.ps); i++ {
			if c.ps[i].remaining < min {
				min = c.ps[i].remaining
			}
		}
		dt = min * float64(len(c.ps)) / c.rate
	default:
		c.next.Stop()
		return
	}
	c.next.Set(dt)
}

// complete fires when the earliest job should have finished. Finished jobs
// are copied into the reused scratch buffer so their callbacks run after
// the next completion is in place, exactly as before the queues became
// allocation-free.
func (c *CPU) complete() {
	c.advance()
	fin := c.finScratch[:0]
	if c.msgLen > 0 {
		// Messages complete strictly one at a time.
		head := &c.msgs[c.msgHead]
		if head.remaining <= instEpsilon {
			fin = append(fin, *head)
			*head = cpuJob{}
			c.msgHead = (c.msgHead + 1) & (len(c.msgs) - 1)
			c.msgLen--
		}
	} else {
		kept := c.ps[:0]
		for i := range c.ps {
			if c.ps[i].remaining <= instEpsilon {
				fin = append(fin, c.ps[i])
			} else {
				kept = append(kept, c.ps[i])
			}
		}
		for i := len(kept); i < len(c.ps); i++ {
			c.ps[i] = cpuJob{}
		}
		c.ps = kept
	}
	c.finScratch = fin
	if c.tr != nil && c.msgLen+len(c.ps) == 0 {
		c.tr.CPUBusy(c.node, c.busyStart)
	}
	c.reschedule()
	for i := range fin {
		fin[i].finish()
		fin[i] = cpuJob{}
	}
}

// Crash discards every queued and in-service job without delivering any
// completion — the crash-stop failure semantics. Work in flight at the
// crash instant is simply lost: waiting submitters are NOT resumed (the
// fault layer drops their processes separately) and async callbacks
// never run. The busy-time accounting keeps everything accrued
// up to the crash instant; a crashed CPU is idle until work arrives after
// repair.
func (c *CPU) Crash() {
	c.advance()
	c.next.Stop()
	if c.tr != nil && c.msgLen+len(c.ps) > 0 {
		c.tr.CPUBusy(c.node, c.busyStart)
	}
	for i := range c.ps {
		c.ps[i] = cpuJob{}
	}
	c.ps = c.ps[:0]
	for i := 0; i < c.msgLen; i++ {
		c.msgs[(c.msgHead+i)&(len(c.msgs)-1)] = cpuJob{}
	}
	c.msgHead, c.msgLen = 0, 0
	for i := range c.finScratch {
		c.finScratch[i] = cpuJob{}
	}
	c.finScratch = c.finScratch[:0]
}

// QueueLen returns the number of in-progress jobs (messages + PS).
func (c *CPU) QueueLen() int { return c.msgLen + len(c.ps) }

// BusyTime returns the busy milliseconds (messages plus PS work)
// accumulated since the start of the run, including credit for the
// currently elapsing interval. Unlike Utilization it is a pure read: it
// does NOT fold the in-progress interval into the accumulators, so the
// probe sampler can call it without perturbing float-summation order —
// the run stays bit-identical with sampling on. Not warmup-adjusted.
func (c *CPU) BusyTime() float64 {
	busy := c.busyPS + c.busyMsg
	if dt := c.sim.Now() - c.lastT; dt > 0 && c.msgLen+len(c.ps) > 0 {
		busy += dt
	}
	return busy
}

// MarkWarmup snapshots busy-time counters so Utilization measures only the
// post-warmup window.
func (c *CPU) MarkWarmup() {
	c.advance()
	c.markPS = c.busyPS
	c.markMsg = c.busyMsg
	c.markT = c.sim.Now()
}

// Utilization returns the fraction of time the CPU was busy (messages plus
// PS work) since the warmup mark.
func (c *CPU) Utilization() float64 {
	c.advance()
	elapsed := c.sim.Now() - c.markT
	if elapsed <= 0 {
		return 0
	}
	return ((c.busyPS - c.markPS) + (c.busyMsg - c.markMsg)) / elapsed
}

// MsgUtilization returns the fraction of time spent on message processing
// since the warmup mark.
func (c *CPU) MsgUtilization() float64 {
	c.advance()
	elapsed := c.sim.Now() - c.markT
	if elapsed <= 0 {
		return 0
	}
	return (c.busyMsg - c.markMsg) / elapsed
}
