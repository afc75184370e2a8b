package resource

import (
	"ddbm/internal/obs"
	"ddbm/internal/sim"
)

// diskReq is one queued disk access, held by value in the per-disk rings.
// Completion either resumes the waiting process's continuation k (Read,
// Write — no closure) or invokes done (WriteAsync — callers pass
// pre-bound functions).
type diskReq struct {
	write bool
	done  func()
	k     *sim.Cont
	// svc, when non-nil, receives the drawn service time at completion —
	// the breakdown accounting's service/queue split seam (Read).
	svc *float64
}

// reqQueue is a power-of-two ring of disk requests; a busy disk in steady
// state allocates nothing per access, unlike the previous slide-forward
// slice that forced a fresh allocation every few operations.
type reqQueue struct {
	buf   []diskReq
	head  int
	count int
}

//ddbmlint:hotpath disk queue push on the transaction path
func (q *reqQueue) push(r diskReq) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = r
	q.count++
}

//ddbmlint:hotpath disk queue pop on the transaction path
func (q *reqQueue) pop() diskReq {
	r := q.buf[q.head]
	q.buf[q.head] = diskReq{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	return r
}

// reserve widens the ring to at least n slots (rounded up to a power of
// two), unwrapping any live window to the front of the new buffer.
func (q *reqQueue) reserve(n int) {
	if len(q.buf) >= n {
		return
	}
	newCap := 8
	for newCap < n {
		newCap *= 2
	}
	buf := make([]diskReq, newCap)
	for i := 0; i < q.count; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// grow doubles the ring (minimum 8 slots), unwrapping the live window to
// the front of the new buffer.
func (q *reqQueue) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]diskReq, newCap) //ddbmlint:allow hotpath-alloc request ring growth to its high-water capacity
	for i := 0; i < q.count; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// disk is a single spindle with one FIFO queue per class; writes are served
// before reads (non-preemptively), per paper §3.4. The in-service request
// lives in cur, and the pre-bound completeFn replaces the per-access
// completion closure the serve loop used to allocate.
type disk struct {
	arr        *DiskArray
	idx        int // spindle index within the array (trace lane)
	busy       bool
	reads      reqQueue
	writes     reqQueue
	cur        diskReq // request currently in service
	curDur     float64 // its service time, for trace/busy accounting
	lost       bool    // the in-service request was discarded by a crash
	completeFn func()  // dk.complete, bound once at construction
	busyTime   float64
	nReads     int64
	nWrites    int64
}

// DiskArray models the NumDisks disks of a node. Requests pick a disk
// uniformly at random (the paper assumes files are evenly balanced across a
// node's disks); access times are uniform on [MinTime, MaxTime].
type DiskArray struct {
	sim     *sim.Sim
	disks   []*disk
	minTime float64
	maxTime float64

	markBusy float64
	markT    sim.Time

	// tr, when non-nil, records one obs span per disk access; node tags
	// the spans and the spindle index becomes the lane.
	tr   *obs.Tracer
	node int
}

// NewDiskArray creates n disks with access times uniform on [minTime,
// maxTime] milliseconds.
func NewDiskArray(s *sim.Sim, n int, minTime, maxTime float64) *DiskArray {
	if n < 1 {
		panic("resource: need at least one disk")
	}
	if maxTime < minTime {
		panic("resource: disk max time below min time")
	}
	d := &DiskArray{sim: s, minTime: minTime, maxTime: maxTime}
	for i := 0; i < n; i++ {
		dk := &disk{arr: d, idx: i}
		dk.completeFn = dk.complete
		d.disks = append(d.disks, dk)
	}
	return d
}

// NumDisks returns the number of spindles.
func (d *DiskArray) NumDisks() int { return len(d.disks) }

// Reserve pre-sizes every spindle's read and write rings for up to queued
// outstanding requests each. The rings are self-amortising, but their
// growth is driven by backlog records (the deepest queue seen so far)
// that arrive too rarely for a warmup to retire deterministically —
// holders with a pinned allocation budget pre-size from a generous bound
// instead. Reserve is golden-trace safe: it draws no randomness and
// schedules nothing.
func (d *DiskArray) Reserve(queued int) {
	for _, dk := range d.disks {
		dk.reads.reserve(queued)
		dk.writes.reserve(queued)
	}
}

// SetTrace attaches an observability tracer recording this array's disk
// accesses, tagged with the given node id. Must be configured before the
// simulation runs; tracing is observation only.
func (d *DiskArray) SetTrace(t *obs.Tracer, node int) {
	d.tr = t
	d.node = node
}

// Read performs a synchronous page read for the process whose
// continuation is k: the process waits, and k is resumed when the disk
// completes the read. A non-nil svc receives the access's drawn service
// time at completion (the elapsed time minus *svc is the queueing
// delay); it draws no randomness and schedules nothing, so runs are
// bit-identical either way.
//
//ddbmlint:hotpath cohort page reads pinned by TestTxnPathAllocFree
func (d *DiskArray) Read(k *sim.Cont, svc *float64) {
	d.submit(diskReq{write: false, k: k, svc: svc})
}

// WriteAsync queues an asynchronous page write (post-commit write-back);
// writes take priority over reads at dequeue time.
//
//ddbmlint:hotpath post-commit write-back pinned by TestTxnPathAllocFree
func (d *DiskArray) WriteAsync(done func()) {
	d.submit(diskReq{write: true, done: done})
}

// Write performs a synchronous (forced) page write for the process whose
// continuation is k, resuming k when the disk completes it — used for
// forcing log records.
//
//ddbmlint:hotpath log forces on the commit path
func (d *DiskArray) Write(k *sim.Cont) {
	d.submit(diskReq{write: true, k: k})
}

//ddbmlint:hotpath shared submission path
func (d *DiskArray) submit(req diskReq) {
	dk := d.disks[d.sim.Rand().Intn(len(d.disks))]
	if req.write {
		dk.writes.push(req)
	} else {
		dk.reads.push(req)
	}
	if !dk.busy {
		d.serve(dk)
	}
}

//ddbmlint:hotpath disk service loop pinned by TestTxnPathAllocFree
func (d *DiskArray) serve(dk *disk) {
	var req diskReq
	switch {
	case dk.writes.count > 0:
		req = dk.writes.pop()
		dk.nWrites++
	case dk.reads.count > 0:
		req = dk.reads.pop()
		dk.nReads++
	default:
		dk.busy = false
		return
	}
	dk.busy = true
	dur := sim.Uniform(d.sim.Rand(), d.minTime, d.maxTime)
	dk.cur, dk.curDur = req, dur
	d.sim.After(dur, dk.completeFn)
}

// complete finishes the in-service request: trace, busy accounting, owner
// notification, then serve the next queued request — in exactly the order
// the old per-access closure used.
//
//ddbmlint:hotpath disk completion dispatch pinned by TestTxnPathAllocFree
func (dk *disk) complete() {
	d := dk.arr
	if dk.lost {
		// The request in service at a crash was discarded; its completion
		// event could not be canceled (serve does not retain it) and fires
		// here as a no-op before the spindle returns to service.
		dk.lost = false
		d.serve(dk)
		return
	}
	req, dur := dk.cur, dk.curDur
	dk.cur = diskReq{}
	if d.tr != nil {
		// The service period began exactly dur before this completion.
		d.tr.DiskAccess(d.node, dk.idx, req.write, d.sim.Now()-dur)
	}
	dk.busyTime += dur
	if req.svc != nil {
		*req.svc = dur
	}
	if req.k != nil {
		req.k.Resume()
	} else if req.done != nil {
		req.done() //ddbmlint:allow hotpath-alloc completion callbacks are pre-bound by their owners
	}
	d.serve(dk)
}

// Crash discards every queued and in-service request without delivering
// any completion — the crash-stop failure semantics. Waiting submitters
// are NOT resumed (the fault layer handles their processes) and async
// callbacks never run. The in-service request's completion event cannot
// be canceled (serve does not retain it), so the spindle marks it lost
// and absorbs the phantom completion when it fires; until then the
// spindle reports busy, which only matters if the node repairs within one
// access time.
func (d *DiskArray) Crash() {
	for _, dk := range d.disks {
		for dk.reads.count > 0 {
			dk.reads.pop()
		}
		for dk.writes.count > 0 {
			dk.writes.pop()
		}
		if dk.busy && !dk.lost {
			dk.cur = diskReq{}
			dk.curDur = 0
			dk.lost = true
		}
	}
}

// QueueLen returns the total number of queued (not in-service) requests.
func (d *DiskArray) QueueLen() int {
	n := 0
	for _, dk := range d.disks {
		n += dk.reads.count + dk.writes.count
	}
	return n
}

// Counts returns total completed reads and writes.
func (d *DiskArray) Counts() (reads, writes int64) {
	for _, dk := range d.disks {
		reads += dk.nReads
		writes += dk.nWrites
	}
	return
}

// MarkWarmup snapshots busy time so Utilization covers only the measurement
// window. Busy time for an in-flight access is credited at its completion,
// which is a negligible edge effect for our run lengths.
func (d *DiskArray) MarkWarmup() {
	d.markBusy = d.totalBusy()
	d.markT = d.sim.Now()
}

// BusyTime returns the busy milliseconds summed across the array's disks
// since the start of the run. A pure read for the probe sampler: busy time
// for an in-flight access is credited at its completion, so one sampling
// window can read slightly above 1 when a long access completes in it.
// Not warmup-adjusted.
func (d *DiskArray) BusyTime() float64 { return d.totalBusy() }

func (d *DiskArray) totalBusy() float64 {
	var b float64
	for _, dk := range d.disks {
		b += dk.busyTime
	}
	return b
}

// Utilization returns the mean busy fraction across the node's disks since
// the warmup mark.
func (d *DiskArray) Utilization() float64 {
	elapsed := d.sim.Now() - d.markT
	if elapsed <= 0 {
		return 0
	}
	return (d.totalBusy() - d.markBusy) / (elapsed * float64(len(d.disks)))
}
