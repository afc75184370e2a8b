package sim

// Mailbox is an unbounded FIFO message queue with at most one process
// waiting to receive. It is the basic inter-process communication
// primitive (coordinator/cohort signalling). The zero value is an empty
// mailbox ready for use.
//
// Messages live in a power-of-two ring buffer: a busy mailbox in steady
// state allocates nothing per send/receive, unlike the previous
// slide-forward slice (`queue = queue[1:]`) that walked its backing array
// and forced a fresh allocation every few operations.
type Mailbox struct {
	buf    []any // ring storage; len(buf) is zero or a power of two
	head   int   // index of the oldest message
	count  int   // messages currently queued
	waiter *Cont
}

// Send enqueues a message and resumes the waiting receiver, if any. It
// never blocks and may be called from any event.
func (m *Mailbox) Send(msg any) {
	if m.count == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.count)&(len(m.buf)-1)] = msg
	m.count++
	if m.waiter != nil {
		w := m.waiter
		m.waiter = nil
		w.Resume()
	}
}

// grow doubles the ring (minimum 8 slots), unwrapping the live window to
// the front of the new buffer.
func (m *Mailbox) grow() {
	newCap := 2 * len(m.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]any, newCap)
	for i := 0; i < m.count; i++ {
		buf[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = buf
	m.head = 0
}

// pop removes and returns the oldest message; the slot is cleared so the
// ring does not retain delivered messages.
func (m *Mailbox) pop() any {
	msg := m.buf[m.head]
	m.buf[m.head] = nil
	m.head = (m.head + 1) & (len(m.buf) - 1)
	m.count--
	return msg
}

// Recv takes the next message. On an empty mailbox it registers k to be
// resumed by the next Send and reports false: the receiving process
// returns from its step and calls Recv again when k fires. Only one
// continuation may wait on a mailbox at a time.
func (m *Mailbox) Recv(k *Cont) (msg any, ok bool) {
	if m.count == 0 {
		if m.waiter != nil && m.waiter != k {
			panic("sim: multiple receivers on one mailbox")
		}
		m.waiter = k
		return nil, false
	}
	return m.pop(), true
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return m.count }

// Reset discards any queued messages and returns the mailbox to its empty
// state while keeping the ring storage, so a recycled owner starts from a
// clean queue without reallocating. It must not be called while a
// receiver waits.
func (m *Mailbox) Reset() {
	if m.waiter != nil {
		panic("sim: Reset with a waiting receiver")
	}
	for i := 0; i < m.count; i++ {
		m.buf[(m.head+i)&(len(m.buf)-1)] = nil
	}
	m.head, m.count = 0, 0
}
