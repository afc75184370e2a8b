package cc

import (
	"ddbm/internal/db"
)

// LockMode is a page lock mode.
type LockMode int

const (
	// LockS is a shared (read) lock.
	LockS LockMode = iota
	// LockX is an exclusive (write) lock.
	LockX
)

func (m LockMode) String() string {
	if m == LockS {
		return "S"
	}
	return "X"
}

// Compatible reports whether two lock modes held by different transactions
// can coexist.
func Compatible(a, b LockMode) bool { return a == LockS && b == LockS }

// lockHolder is one member of an entry's holder set: a node in the
// intrusive singly-linked holder list, kept in grant order (append at the
// tail). Nodes are recycled through the table's free list — a linked list
// rather than a slice because holder counts vary wildly across pages, so
// per-entry array capacities never converge under free-list reuse and the
// occasional regrowth kept the steady state from being allocation-free.
type lockHolder struct {
	co   *CohortMeta
	mode LockMode
	next *lockHolder
}

// lockReq is one queued request: a node in its entry's intrusive FIFO wait
// list. Nodes are recycled through the table's free list so steady-state
// enqueue/dequeue never allocates.
type lockReq struct {
	co      *CohortMeta
	mode    LockMode
	upgrade bool
	next    *lockReq
}

// lockEntry is the lock state of one page: the holder set and an intrusive
// singly-linked wait queue (upgrades at the front). Entries are recycled
// through the table's free list when a page's last holder and waiter leave.
type lockEntry struct {
	page     db.PageID
	hhead    *lockHolder
	htail    *lockHolder
	hlen     int
	qhead    *lockReq
	qtail    *lockReq
	qlen     int
	nextFree *lockEntry
}

func (e *lockEntry) holderMode(co *CohortMeta) (LockMode, bool) {
	for h := e.hhead; h != nil; h = h.next {
		if h.co == co {
			return h.mode, true
		}
	}
	return 0, false
}

// findHolder returns co's holder node, or nil.
func (e *lockEntry) findHolder(co *CohortMeta) *lockHolder {
	for h := e.hhead; h != nil; h = h.next {
		if h.co == co {
			return h
		}
	}
	return nil
}

// pushBack appends q to the wait queue.
func (e *lockEntry) pushBack(q *lockReq) {
	if e.qtail == nil {
		e.qhead = q
	} else {
		e.qtail.next = q
	}
	e.qtail = q
	e.qlen++
}

// insertUpgrade places q behind earlier upgrades but ahead of ordinary
// requests.
func (e *lockEntry) insertUpgrade(q *lockReq) {
	var prev *lockReq
	cur := e.qhead
	for cur != nil && cur.upgrade {
		prev, cur = cur, cur.next
	}
	q.next = cur
	if prev == nil {
		e.qhead = q
	} else {
		prev.next = q
	}
	if cur == nil {
		e.qtail = q
	}
	e.qlen++
}

// heldLock is one (page, mode) pair a cohort holds.
type heldLock struct {
	page db.PageID
	mode LockMode
}

// cohortLocks is one cohort's held set, kept sorted by pageLess at all
// times (ordered insertion on acquire) so ReleaseAll walks the
// deterministic total order without sorting. Recycled through the table's
// free list.
type cohortLocks struct {
	locks    []heldLock
	nextFree *cohortLocks
}

// search returns the insertion index of page: the first position whose
// page is not below it.
func (cl *cohortLocks) search(page db.PageID) int {
	lo, hi := 0, len(cl.locks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pageLess(cl.locks[mid].page, page) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (cl *cohortLocks) get(page db.PageID) (LockMode, bool) {
	i := cl.search(page)
	if i < len(cl.locks) && cl.locks[i].page == page {
		return cl.locks[i].mode, true
	}
	return 0, false
}

// set records page at mode, inserting in sorted position or updating in
// place.
func (cl *cohortLocks) set(page db.PageID, mode LockMode) {
	i := cl.search(page)
	if i < len(cl.locks) && cl.locks[i].page == page {
		cl.locks[i].mode = mode
		return
	}
	cl.locks = append(cl.locks, heldLock{})
	copy(cl.locks[i+1:], cl.locks[i:])
	cl.locks[i] = heldLock{page: page, mode: mode}
}

// LockTable is the per-node lock manager shared by the 2PL and wound-wait
// algorithms: shared/exclusive page locks, FIFO wait queues, and
// read-to-write upgrades that jump to the head of the queue.
//
// The contention paths are allocation-free in steady state and never scan
// or sort the whole table: entries, queue nodes and per-cohort held lists
// are free-listed, held sets are kept in page order incrementally, and the
// set of contended pages (non-empty wait queue) is maintained as a sorted
// slice on first-waiter/last-waiter transitions so waits-for extraction is
// O(waiters), not O(locks held). A page's entry is found by indexing, not
// hashing: rows[file][page].
type LockTable struct {
	// rows is the dense page index: rows[file][page] is the page's entry,
	// nil while no cohort holds or waits for it. A file's row is made on
	// the first lock of one of its pages, so only files stored at this
	// node have one. size counts the non-nil cells.
	rows [][]*lockEntry
	size int

	// holders and waiters count the cohorts with held locks and with a
	// queued request; the state itself lives on the CohortMeta (see
	// queuedAt/heldLocks there), keeping table-side maps — and their
	// bucket churn — off the contention path.
	holders int
	waiters int

	// contended holds every entry with a non-empty wait queue, sorted by
	// pageLess — the incremental replacement for sorting all entries on
	// every WaitsForEdges call.
	contended []*lockEntry

	freeEntries *lockEntry
	freeReqs    *lockReq
	freeCohorts *cohortLocks
	freeHolders *lockHolder

	// conflictBuf backs the conflicts slice Lock returns; it is valid only
	// until the next Lock call.
	conflictBuf []*CohortMeta

	// TrackInDoubt, set only when the fault layer is active, makes Lock
	// tag waiters whose conflict set includes an in-doubt holder
	// (CohortMeta.BlockedInDoubt) so blocked time behind unresolved
	// commit decisions can be attributed separately.
	TrackInDoubt bool
}

// NewLockTable creates an empty lock table.
func NewLockTable() *LockTable { return &LockTable{} }

// Reserve pre-sizes the table's scratch and free lists for up to txns
// concurrently active cohorts each holding up to locksPerCohort locks.
// The free lists and scratch buffers below are self-amortising, but their
// growth is driven by high-water records (widest conflict set, most locks
// held at once) that arrive too rarely for a warmup to retire
// deterministically — holders with a pinned allocation budget pre-size
// from their concurrency bounds instead. Queue nodes, held lists, entries
// and holder nodes are each allocated as one slice with the free list
// threaded through it, and every held list's array is carved from one
// more, its capacity capped so an append past the bound reallocates
// rather than run into a neighbour. Free-list order is unobservable:
// nothing orders by pointer. Reserve performs no locking work, so it is
// golden-trace safe at any point before the simulation runs.
func (lt *LockTable) Reserve(txns, locksPerCohort int) {
	if cap(lt.conflictBuf) < txns {
		lt.conflictBuf = make([]*CohortMeta, 0, txns)
	}
	if cap(lt.contended) < txns {
		c := make([]*lockEntry, len(lt.contended), txns)
		copy(c, lt.contended)
		lt.contended = c
	}
	// One queued request per cohort, at most.
	reqs := make([]lockReq, txns)
	for i := range reqs {
		lt.freeReq(&reqs[i])
	}
	// Held sets: one per cohort, each sized for its worst-case lock count.
	held := make([]heldLock, txns*locksPerCohort)
	sets := make([]cohortLocks, txns)
	for i := range sets {
		off := i * locksPerCohort
		sets[i].locks = held[off : off : off+locksPerCohort]
		lt.freeCohortLocks(&sets[i])
	}
	// Holder nodes and entries: bounded by the total locks held plus the
	// queued requests.
	total := txns*locksPerCohort + txns
	entries := make([]lockEntry, total)
	holders := make([]lockHolder, total)
	for i := range entries {
		lt.freeEntry(&entries[i])
		holders[i].next = lt.freeHolders
		lt.freeHolders = &holders[i]
	}
}

// slot returns page's cell in the page index, making or widening its
// file's row first if needed. A row at least doubles when it grows, so it
// settles at the file's highest locked page after a few regrowths.
func (lt *LockTable) slot(page db.PageID) **lockEntry {
	if page.File >= len(lt.rows) {
		rows := make([][]*lockEntry, page.File+1)
		copy(rows, lt.rows)
		lt.rows = rows
	}
	row := lt.rows[page.File]
	if page.Page >= len(row) {
		grown := make([]*lockEntry, max(page.Page+1, 2*len(row)))
		copy(grown, row)
		lt.rows[page.File] = grown
		row = grown
	}
	return &row[page.Page]
}

// entry returns the entry of a page that has lock state.
func (lt *LockTable) entry(page db.PageID) *lockEntry { return lt.rows[page.File][page.Page] }

func (lt *LockTable) newEntry(page db.PageID) *lockEntry {
	e := lt.freeEntries
	if e == nil {
		e = &lockEntry{}
	} else {
		lt.freeEntries = e.nextFree
		e.nextFree = nil
	}
	e.page = page
	return e
}

func (lt *LockTable) freeEntry(e *lockEntry) {
	e.page = db.PageID{}
	e.nextFree = lt.freeEntries
	lt.freeEntries = e
}

func (lt *LockTable) newReq(co *CohortMeta, mode LockMode, upgrade bool) *lockReq {
	q := lt.freeReqs
	if q == nil {
		q = &lockReq{}
	} else {
		lt.freeReqs = q.next
	}
	q.co, q.mode, q.upgrade, q.next = co, mode, upgrade, nil
	return q
}

func (lt *LockTable) freeReq(q *lockReq) {
	q.co = nil
	q.next = lt.freeReqs
	lt.freeReqs = q
}

// addHolder appends co to e's holder list in grant order.
func (lt *LockTable) addHolder(e *lockEntry, co *CohortMeta, mode LockMode) {
	h := lt.freeHolders
	if h == nil {
		h = &lockHolder{}
	} else {
		lt.freeHolders = h.next
	}
	h.co, h.mode, h.next = co, mode, nil
	if e.htail == nil {
		e.hhead = h
	} else {
		e.htail.next = h
	}
	e.htail = h
	e.hlen++
}

// dropHolder removes co from e's holder set, recycling the node so dead
// cohorts are not pinned.
func (lt *LockTable) dropHolder(e *lockEntry, co *CohortMeta) {
	var prev *lockHolder
	for h := e.hhead; h != nil; prev, h = h, h.next {
		if h.co == co {
			if prev == nil {
				e.hhead = h.next
			} else {
				prev.next = h.next
			}
			if e.htail == h {
				e.htail = prev
			}
			e.hlen--
			h.co, h.next = nil, lt.freeHolders
			lt.freeHolders = h
			return
		}
	}
}

func (lt *LockTable) newCohortLocks() *cohortLocks {
	cl := lt.freeCohorts
	if cl == nil {
		cl = &cohortLocks{}
	} else {
		lt.freeCohorts = cl.nextFree
		cl.nextFree = nil
	}
	return cl
}

func (lt *LockTable) freeCohortLocks(cl *cohortLocks) {
	cl.locks = cl.locks[:0]
	cl.nextFree = lt.freeCohorts
	lt.freeCohorts = cl
}

// contendedSearch returns the position of page in the contended list (its
// index if present, else its insertion point).
func (lt *LockTable) contendedSearch(page db.PageID) int {
	lo, hi := 0, len(lt.contended)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pageLess(lt.contended[mid].page, page) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// markContended inserts e into the contended set; called exactly when its
// queue length goes 0 -> 1.
func (lt *LockTable) markContended(e *lockEntry) {
	i := lt.contendedSearch(e.page)
	lt.contended = append(lt.contended, nil)
	copy(lt.contended[i+1:], lt.contended[i:])
	lt.contended[i] = e
}

// unmarkContended removes e from the contended set; called exactly when
// its queue length goes 1 -> 0.
func (lt *LockTable) unmarkContended(e *lockEntry) {
	i := lt.contendedSearch(e.page)
	last := len(lt.contended) - 1
	copy(lt.contended[i:], lt.contended[i+1:])
	lt.contended[last] = nil
	lt.contended = lt.contended[:last]
}

// Lock requests a lock on page in the given mode for co. If the lock is
// granted immediately it returns (true, nil). Otherwise the request has
// been queued (upgrades at the front, new requests at the back) and the
// cohorts currently standing in the way — conflicting holders plus
// conflicting queued requests ahead of ours — are returned so the caller
// can apply its conflict policy (wait, wound, detect deadlock). The caller
// must then call co.Block(). The conflicts slice is shared scratch, valid
// only until the next Lock call on this table.
func (lt *LockTable) Lock(co *CohortMeta, page db.PageID, mode LockMode) (granted bool, conflicts []*CohortMeta) {
	if co.lockOwner != lt {
		// First contact: claim the cohort, abandoning any state a previous
		// table left on it (tests reuse metas across tables; real cohorts
		// lock at exactly one node).
		co.lockOwner, co.heldLocks, co.queued = lt, nil, false
	}
	cell := lt.slot(page)
	e := *cell
	if e == nil {
		e = lt.newEntry(page)
		*cell = e
		lt.size++
	}

	if cur, ok := e.holderMode(co); ok {
		if cur == LockX || mode == LockS {
			return true, nil // already strong enough
		}
		// Upgrade S -> X: grantable only as sole holder.
		if e.hlen == 1 {
			lt.setHolder(e, co, LockX)
			return true, nil
		}
		// Upgrades queue ahead of ordinary requests, behind earlier upgrades.
		req := lt.newReq(co, LockX, true)
		e.insertUpgrade(req)
		if e.qlen == 1 {
			lt.markContended(e)
		}
		co.queuedAt, co.queued = page, true
		lt.waiters++
		buf := lt.conflictBuf[:0]
		for h := e.hhead; h != nil; h = h.next {
			if h.co != co {
				buf = append(buf, h.co)
			}
		}
		// Conflicting upgrades queued ahead of ours also stand in the way.
		for q := e.qhead; q != req; q = q.next {
			buf = append(buf, q.co)
		}
		lt.conflictBuf = buf
		lt.noteInDoubtConflicts(co, buf)
		return false, buf
	}

	// New request: FIFO — grantable only with an empty queue and no
	// conflicting holder (compatible requests may not overtake waiters,
	// which would starve queued upgrades and X requests).
	if e.qlen == 0 {
		ok := true
		for h := e.hhead; h != nil; h = h.next {
			if !Compatible(mode, h.mode) {
				ok = false
				break
			}
		}
		if ok {
			lt.setHolder(e, co, mode)
			return true, nil
		}
	}
	req := lt.newReq(co, mode, false)
	e.pushBack(req)
	if e.qlen == 1 {
		lt.markContended(e)
	}
	co.queuedAt, co.queued = page, true
	lt.waiters++
	buf := lt.conflictBuf[:0]
	for h := e.hhead; h != nil; h = h.next {
		if !Compatible(mode, h.mode) {
			buf = append(buf, h.co)
		}
	}
	for q := e.qhead; q != req; q = q.next {
		if q.co != co && (!Compatible(mode, q.mode) || q.upgrade) {
			buf = append(buf, q.co)
		}
	}
	lt.conflictBuf = buf
	lt.noteInDoubtConflicts(co, buf)
	return false, buf
}

// noteInDoubtConflicts tags co when anything it now waits behind is an
// in-doubt cohort — a prepared transaction whose decision is unresolved
// (typically because its node crashed after voting). Active only under
// the fault layer's TrackInDoubt.
func (lt *LockTable) noteInDoubtConflicts(co *CohortMeta, conflicts []*CohortMeta) {
	if !lt.TrackInDoubt {
		return
	}
	for _, c := range conflicts {
		if c.InDoubt {
			co.BlockedInDoubt = true
			return
		}
	}
}

func (lt *LockTable) setHolder(e *lockEntry, co *CohortMeta, mode LockMode) {
	if h := e.findHolder(co); h != nil {
		h.mode = mode
		co.heldLocks.set(e.page, mode)
		return
	}
	lt.addHolder(e, co, mode)
	cl := co.heldLocks
	if cl == nil {
		cl = lt.newCohortLocks()
		co.heldLocks = cl
		lt.holders++
	}
	cl.set(e.page, mode)
}

// ReleaseAll drops every lock co holds and removes any queued request,
// promoting newly grantable waiters. It is idempotent. Releases happen in
// (file, page) order — the cohort's held list is kept sorted incrementally,
// so the deterministic order (promotions schedule resume events, whose
// order must not depend on map iteration) costs no sort here.
func (lt *LockTable) ReleaseAll(co *CohortMeta) {
	if co.lockOwner != lt {
		return // the cohort never locked anything here
	}
	lt.RemoveWaiter(co)
	cl := co.heldLocks
	if cl == nil {
		return
	}
	co.heldLocks = nil
	lt.holders--
	for _, hl := range cl.locks {
		e := lt.entry(hl.page)
		lt.dropHolder(e, co)
		lt.promote(hl.page, e)
	}
	lt.freeCohortLocks(cl)
}

// RemoveWaiter cancels co's queued request (if any) without resuming it;
// the caller is responsible for Deny()ing the cohort if it is blocked.
func (lt *LockTable) RemoveWaiter(co *CohortMeta) {
	if co.lockOwner != lt {
		return // the cohort never locked anything here
	}
	if !co.queued {
		return
	}
	page := co.queuedAt
	co.queued = false
	lt.waiters--
	e := lt.entry(page)
	var prev *lockReq
	for q := e.qhead; q != nil; prev, q = q, q.next {
		if q.co == co {
			if prev == nil {
				e.qhead = q.next
			} else {
				prev.next = q.next
			}
			if e.qtail == q {
				e.qtail = prev
			}
			e.qlen--
			lt.freeReq(q)
			if e.qlen == 0 {
				lt.unmarkContended(e)
			}
			break
		}
	}
	lt.promote(page, e)
}

// promote grants queued requests that have become compatible, in FIFO order
// (with upgrades at the front), resuming each granted cohort.
func (lt *LockTable) promote(page db.PageID, e *lockEntry) {
	for e.qhead != nil {
		head := e.qhead
		if head.upgrade {
			if e.hlen != 1 || e.hhead.co != head.co {
				return
			}
			e.hhead.mode = LockX
			head.co.heldLocks.set(page, LockX)
		} else {
			ok := true
			for h := e.hhead; h != nil; h = h.next {
				if !Compatible(head.mode, h.mode) {
					ok = false
					break
				}
			}
			if !ok {
				return
			}
			lt.addHolder(e, head.co, head.mode)
			cl := head.co.heldLocks
			if cl == nil {
				cl = lt.newCohortLocks()
				head.co.heldLocks = cl
				lt.holders++
			}
			cl.set(page, head.mode)
		}
		granted := head.co
		e.qhead = head.next
		if e.qhead == nil {
			e.qtail = nil
		}
		e.qlen--
		lt.freeReq(head)
		if e.qlen == 0 {
			lt.unmarkContended(e)
		}
		granted.queued = false
		lt.waiters--
		granted.Grant()
	}
	if e.hlen == 0 && e.qlen == 0 {
		lt.rows[page.File][page.Page] = nil
		lt.size--
		lt.freeEntry(e)
	}
}

// Holds reports the mode co holds on page.
func (lt *LockTable) Holds(co *CohortMeta, page db.PageID) (LockMode, bool) {
	if co.lockOwner != lt {
		return 0, false
	}
	cl := co.heldLocks
	if cl == nil {
		return 0, false
	}
	return cl.get(page)
}

// HeldCount returns the number of locks co holds.
func (lt *LockTable) HeldCount(co *CohortMeta) int {
	if co.lockOwner != lt {
		return 0
	}
	cl := co.heldLocks
	if cl == nil {
		return 0
	}
	return len(cl.locks)
}

// Size returns the number of pages with lock state (held or queued) —
// the probe sampler's lock-table-size gauge.
func (lt *LockTable) Size() int { return lt.size }

// WaiterCount returns the number of cohorts currently queued behind a
// conflicting lock — the probe sampler's blocked-txn gauge.
func (lt *LockTable) WaiterCount() int { return lt.waiters }

// ContendedCount returns the number of pages with a non-empty wait queue.
func (lt *LockTable) ContendedCount() int { return len(lt.contended) }

// Empty reports whether the table holds no locks and no waiters — the
// quiescence invariant checked at the end of simulations.
func (lt *LockTable) Empty() bool {
	return lt.holders == 0 && lt.waiters == 0
}

// pageLess is the total order (file, then page) used wherever lock-table
// state must be kept or iterated deterministically.
func pageLess(a, b db.PageID) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	return a.Page < b.Page
}

// AppendWaitsForEdges appends this node's waits-for graph to edges and
// returns the extended slice: one edge per (waiter, blocker) pair where
// the blocker is a conflicting holder or a conflicting request queued
// ahead of the waiter. Only the contended pages — maintained incrementally
// as queues gain and lose their waiters — are visited, in (file, page)
// order: the same total order the former sort-the-whole-table
// implementation produced, at O(waiters) cost independent of the number of
// locks held. A stable order keeps every downstream consumer (tracing,
// tests, future victim policies) independent of map iteration.
func (lt *LockTable) AppendWaitsForEdges(node int, edges []Edge) []Edge {
	for _, e := range lt.contended {
		qi := 0
		for q := e.qhead; q != nil; q, qi = q.next, qi+1 {
			waiter := q.co.Txn
			if q.upgrade {
				for h := e.hhead; h != nil; h = h.next {
					if h.co != q.co && h.co.Txn != waiter {
						edges = append(edges, Edge{Waiter: waiter, Blocker: h.co.Txn, Node: node})
					}
				}
				for p := e.qhead; p != q; p = p.next {
					if p.co.Txn != waiter {
						edges = append(edges, Edge{Waiter: waiter, Blocker: p.co.Txn, Node: node})
					}
				}
				continue
			}
			for h := e.hhead; h != nil; h = h.next {
				if !Compatible(q.mode, h.mode) && h.co.Txn != waiter {
					edges = append(edges, Edge{Waiter: waiter, Blocker: h.co.Txn, Node: node})
				}
			}
			for p := e.qhead; p != q; p = p.next {
				if (p.upgrade || !Compatible(q.mode, p.mode)) && p.co.Txn != waiter {
					edges = append(edges, Edge{Waiter: waiter, Blocker: p.co.Txn, Node: node})
				}
			}
		}
	}
	return edges
}

// WaitsForEdges returns this node's waits-for graph in a fresh slice, for
// tests and invariant checks. Local detection and the Snoop append into
// reused buffers with AppendWaitsForEdges instead.
func (lt *LockTable) WaitsForEdges(node int) []Edge {
	return lt.AppendWaitsForEdges(node, nil)
}
