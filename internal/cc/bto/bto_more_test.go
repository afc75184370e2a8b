package bto

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func TestMultipleReadersBlockOnSamePendingWrite(t *testing.T) {
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w := newCo(1, 10)
	m.Access(w, pg(1), true)
	granted := 0
	for i := 0; i < 3; i++ {
		r := newCo(int64(i+2), int64(20+i))
		var out cc.Outcome
		simtest.Go(s, cctest.Access(m, r, pg(1), false, &out), simtest.Do(func() {
			if out == cc.Granted {
				granted++
			}
		}))
	}
	simtest.Go(s, simtest.Delay(10), simtest.Do(func() {
		w.Txn.State = cc.Committing
		m.Commit(w)
	}))
	s.Run(1000)
	if granted != 3 {
		t.Fatalf("%d of 3 blocked readers granted after commit", granted)
	}
	if m.page(pg(1)).rts != 22 {
		t.Fatalf("rts %d, want 22 (max of granted readers)", m.page(pg(1)).rts)
	}
}

func TestReaderBlocksAcrossChainOfPendingWrites(t *testing.T) {
	// Pending writes at 5 and 10; reader at 20 must wait for BOTH to
	// resolve before it may proceed.
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w5, w10, r20 := newCo(1, 5), newCo(2, 10), newCo(3, 20)
	m.Access(w5, pg(1), true)
	m.Access(w10, pg(1), true)
	var grantedAt sim.Time
	var out cc.Outcome
	simtest.Go(s, cctest.Access(m, r20, pg(1), false, &out), simtest.Do(func() {
		if out == cc.Granted {
			grantedAt = s.Now()
		}
	}))
	simtest.Go(s, simtest.Delay(10), simtest.Do(func() {
		w5.Txn.State = cc.Committing
		m.Commit(w5)
	}))
	simtest.Go(s, simtest.Delay(30), simtest.Do(func() {
		w10.Txn.State = cc.Committing
		m.Commit(w10)
	}))
	s.Run(1000)
	if grantedAt != 30 {
		t.Fatalf("reader granted at %v, want 30 (after both pending writes)", grantedAt)
	}
}

func TestWriteBetweenBlockedReaderAndItsWake(t *testing.T) {
	// Reader at 20 blocks on pending write at 10. A new write at 15
	// arrives while it waits. When 10 commits, the reader must STAY
	// blocked (15 still pending below it), and only proceed when 15
	// resolves.
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w10, w15, r20 := newCo(1, 10), newCo(2, 15), newCo(3, 20)
	m.Access(w10, pg(1), true)
	var grantedAt sim.Time
	var out cc.Outcome
	simtest.Go(s,
		cctest.Access(m, r20, pg(1), false, &out),
		simtest.Do(func() { grantedAt = s.Now() }))
	simtest.Go(s, simtest.Delay(2), simtest.Do(func() {
		if m.Access(w15, pg(1), true) != cc.Granted {
			t.Error("w15 rejected")
		}
	}))
	simtest.Go(s, simtest.Delay(10), simtest.Do(func() {
		w10.Txn.State = cc.Committing
		m.Commit(w10)
	}))
	simtest.Go(s, simtest.Delay(25), simtest.Do(func() {
		m.Abort(w15) // 15 aborts; reader reads version 10
	}))
	s.Run(1000)
	if out != cc.Granted || grantedAt != 25 {
		t.Fatalf("reader %v at %v, want granted at 25", out, grantedAt)
	}
	if m.page(pg(1)).wts != 10 {
		t.Fatalf("wts %d, want 10", m.page(pg(1)).wts)
	}
}

func TestWriteRejectedWhileReaderBlocked(t *testing.T) {
	// A blocked reader at 20 has NOT yet raised rts (it hasn't read), so a
	// write at 12 can still slip in; but a write below the committed wts
	// follows the Thomas rule. Verify rts only rises at grant time.
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w10, r20 := newCo(1, 10), newCo(2, 20)
	m.Access(w10, pg(1), true)
	simtest.Go(s, cctest.Access(m, r20, pg(1), false, nil))
	s.Run(10)
	if m.page(pg(1)).rts != 0 {
		t.Fatalf("blocked reader raised rts to %d before reading", m.page(pg(1)).rts)
	}
}

func TestAbortBeforeAnyAccessIsNoOp(t *testing.T) {
	m := newMgr()
	co := newCo(1, 10)
	m.Abort(co) // never touched the node
	if !m.Quiesced() {
		t.Fatal("no-op abort left state")
	}
}

func TestInterleavedPagesIndependent(t *testing.T) {
	// Timestamps on one page must not affect another.
	m := newMgr()
	a := newCo(1, 10)
	b := newCo(2, 5)
	if m.Access(a, pg(1), false) != cc.Granted {
		t.Fatal("read rejected")
	}
	// b (older) writes a DIFFERENT page: fine even though a read page 1.
	if m.Access(b, pg(2), true) != cc.Granted {
		t.Fatal("independent page write rejected")
	}
	// but b writing page 1 is too late (rts 10 > 5).
	if m.Access(b, pg(1), true) != cc.Aborted {
		t.Fatal("late write granted")
	}
}
