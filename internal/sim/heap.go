package sim

// eventQueue is a 4-ary min-heap of pending events ordered by (at, seq).
// It replaces container/heap to keep the kernel hot path free of interface
// dispatch and `any` boxing: push/pop/remove compare *event directly and the
// comparisons inline. A 4-ary layout halves the tree depth of a binary heap,
// trading a few extra comparisons per level for far fewer cache-missing
// levels — a net win at the queue sizes a busy machine sustains (one pending
// event per waiting process; resource completions sit on the timer tree).
//
// Ordering is total: seq is unique per event, so identical timestamps break
// ties by scheduling order and the pop sequence is independent of heap
// arity. That is what keeps the kernel rewrite bit-identical to the old
// container/heap binary-heap kernel for any fixed seed.
type eventQueue struct {
	items []*event
}

// eventBefore reports whether a fires before b: earlier time first,
// scheduling order (seq) breaking ties.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.items) }

// min returns the earliest pending event without removing it.
func (q *eventQueue) min() *event { return q.items[0] }

// push inserts e and records its heap index for O(log n) removal.
func (q *eventQueue) push(e *event) {
	q.items = append(q.items, e)
	q.siftUp(len(q.items) - 1)
}

// pop removes and returns the earliest event. Its index is set to
// notQueued.
func (q *eventQueue) pop() *event {
	items := q.items
	e := items[0]
	n := len(items) - 1
	last := items[n]
	items[n] = nil
	q.items = items[:n]
	e.index = notQueued
	if n > 0 {
		last.index = 0
		q.items[0] = last
		q.siftDown(0)
	}
	return e
}

// fix restores the heap order after the event at index i changed (remove
// moves the tail there): one sift, up or down.
func (q *eventQueue) fix(i int) {
	if i > 0 && eventBefore(q.items[i], q.items[(i-1)>>2]) {
		q.siftUp(i)
		return
	}
	q.siftDown(i)
}

// remove deletes the event at heap index i (used by Cont.Cancel). The
// displaced tail element may violate the heap property either way
// relative to its new position, so fix sifts it up or down.
func (q *eventQueue) remove(i int) {
	items := q.items
	n := len(items) - 1
	items[i].index = notQueued
	last := items[n]
	items[n] = nil
	q.items = items[:n]
	if i == n {
		return
	}
	last.index = i
	q.items[i] = last
	q.fix(i)
}

func (q *eventQueue) siftUp(i int) {
	items := q.items
	e := items[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := items[parent]
		if !eventBefore(e, p) {
			break
		}
		items[i] = p
		p.index = i
		i = parent
	}
	items[i] = e
	e.index = i
}

func (q *eventQueue) siftDown(i int) {
	items := q.items
	n := len(items)
	e := items[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Find the earliest of up to four children.
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(items[c], items[best]) {
				best = c
			}
		}
		if !eventBefore(items[best], e) {
			break
		}
		items[i] = items[best]
		items[i].index = i
		i = best
	}
	items[i] = e
	e.index = i
}
