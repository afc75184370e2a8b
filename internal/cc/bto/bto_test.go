package bto

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

func pg(n int) db.PageID { return db.PageID{File: 0, Page: n} }

// newCo builds a cohort whose AttemptTS is ts.
func newCo(id, ts int64) *cc.CohortMeta {
	return &cc.CohortMeta{Txn: &cc.TxnMeta{ID: id, TS: id, AttemptTS: ts}, Node: 0}
}

func newMgr() *manager {
	return New().NewManager(cc.Env{Sim: sim.New(1), Node: 0}).(*manager)
}

func TestKind(t *testing.T) {
	a := New()
	if a.Kind() != cc.BTO {
		t.Fatal("wrong kind")
	}
	a.StartGlobal(nil)
	if newMgr().Kind() != cc.BTO {
		t.Fatal("manager wrong kind")
	}
}

func TestReadsInAnyOrderOnCommittedData(t *testing.T) {
	m := newMgr()
	// Reads never conflict with reads, regardless of order.
	if m.Access(newCo(1, 10), pg(1), false) != cc.Granted {
		t.Fatal("read rejected")
	}
	if m.Access(newCo(2, 5), pg(1), false) != cc.Granted {
		t.Fatal("older read after younger read rejected (reads don't conflict)")
	}
}

func TestLateReadAborts(t *testing.T) {
	m := newMgr()
	w := newCo(1, 10)
	if m.Access(w, pg(1), true) != cc.Granted {
		t.Fatal("write rejected")
	}
	w.Txn.State = cc.Committing
	m.Commit(w) // wts = 10
	if m.Access(newCo(2, 5), pg(1), false) != cc.Aborted {
		t.Fatal("read with ts below committed wts was granted")
	}
	if m.Access(newCo(3, 15), pg(1), false) != cc.Granted {
		t.Fatal("read above wts rejected")
	}
}

func TestLateWriteAborts(t *testing.T) {
	m := newMgr()
	if m.Access(newCo(1, 10), pg(1), false) != cc.Granted { // rts = 10
		t.Fatal("read rejected")
	}
	if m.Access(newCo(2, 5), pg(1), true) != cc.Aborted {
		t.Fatal("write below rts was granted")
	}
	if m.Access(newCo(3, 15), pg(1), true) != cc.Granted {
		t.Fatal("write above rts rejected")
	}
}

func TestThomasWriteRule(t *testing.T) {
	m := newMgr()
	w1 := newCo(1, 20)
	m.Access(w1, pg(1), true)
	w1.Txn.State = cc.Committing
	m.Commit(w1) // wts = 20
	// A write at 10 (> rts 0, < wts 20) is skipped, not aborted.
	w2 := newCo(2, 10)
	if m.Access(w2, pg(1), true) != cc.Granted {
		t.Fatal("Thomas-rule write aborted instead of skipped")
	}
	// It must leave no pending entry.
	if len(m.page(pg(1)).pending) != 0 {
		t.Fatal("Thomas-rule write left a pending entry")
	}
	// Committing it must not move wts backwards.
	w2.Txn.State = cc.Committing
	m.Commit(w2)
	if m.page(pg(1)).wts != 20 {
		t.Fatalf("wts %d after Thomas write, want 20", m.page(pg(1)).wts)
	}
}

func TestWritersNeverBlock(t *testing.T) {
	m := newMgr()
	// Two pending writes from different transactions coexist.
	if m.Access(newCo(1, 10), pg(1), true) != cc.Granted {
		t.Fatal("first write rejected")
	}
	if m.Access(newCo(2, 20), pg(1), true) != cc.Granted {
		t.Fatal("second write rejected (writers must queue, not block)")
	}
	if len(m.page(pg(1)).pending) != 2 {
		t.Fatalf("pending count %d, want 2", len(m.page(pg(1)).pending))
	}
	// Pending queue is in timestamp order even with out-of-order arrival.
	if m.Access(newCo(3, 15), pg(1), true) != cc.Granted {
		t.Fatal("third write rejected")
	}
	p := m.page(pg(1)).pending
	if p[0].ts != 10 || p[1].ts != 15 || p[2].ts != 20 {
		t.Fatalf("pending order %v", p)
	}
}

func TestReadBlocksOnEarlierPendingWrite(t *testing.T) {
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w := newCo(1, 10)
	r := newCo(2, 20)
	m.Access(w, pg(1), true) // pending write at 10
	var out cc.Outcome
	var at sim.Time
	simtest.Go(s,
		cctest.Access(m, r, pg(1), false, &out), // must wait for the pending write
		simtest.Do(func() { at = s.Now() }))
	simtest.Go(s, simtest.Delay(25), simtest.Do(func() {
		w.Txn.State = cc.Committing
		m.Commit(w)
	}))
	s.Run(1000)
	if out != cc.Granted || at != 25 {
		t.Fatalf("reader %v at %v, want granted at 25", out, at)
	}
	if m.page(pg(1)).rts != 20 {
		t.Fatalf("rts %d after blocked read granted, want 20", m.page(pg(1)).rts)
	}
}

func TestReadDoesNotBlockOnLaterPendingWrite(t *testing.T) {
	m := newMgr()
	m.Access(newCo(1, 30), pg(1), true) // pending write at 30
	if m.Access(newCo(2, 20), pg(1), false) != cc.Granted {
		t.Fatal("read below pending write blocked (it reads the committed version)")
	}
}

func TestBlockedReadDeniedWhenVersionPasses(t *testing.T) {
	// Reader at 20 blocks on pending write at 10; then a write at 25
	// commits first... construct: pending writes at 10 and 25; reader at 20
	// blocks on 10; commit 25 first (wts=25 > 20): reader must abort when
	// re-evaluated; then commit 10 too.
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w10, w25, r20 := newCo(1, 10), newCo(2, 25), newCo(3, 20)
	m.Access(w10, pg(1), true)
	m.Access(w25, pg(1), true)
	var out cc.Outcome
	simtest.Go(s, cctest.Access(m, r20, pg(1), false, &out))
	simtest.Go(s, simtest.Delay(5), simtest.Do(func() {
		w25.Txn.State = cc.Committing
		m.Commit(w25) // wts = 25: the blocked reader at 20 is now too late
	}))
	s.Run(1000)
	if out != cc.Aborted {
		t.Fatalf("blocked reader outcome %v, want aborted (version passed it by)", out)
	}
}

func TestAbortDiscardsPendingAndUnblocks(t *testing.T) {
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w := newCo(1, 10)
	r := newCo(2, 20)
	m.Access(w, pg(1), true)
	var out cc.Outcome
	var at sim.Time
	simtest.Go(s,
		cctest.Access(m, r, pg(1), false, &out),
		simtest.Do(func() { at = s.Now() }))
	simtest.Go(s, simtest.Delay(7), simtest.Do(func() {
		m.Abort(w) // write never happens; reader reads committed version
	}))
	s.Run(1000)
	if out != cc.Granted || at != 7 {
		t.Fatalf("reader %v at %v, want granted at 7 (writer aborted)", out, at)
	}
	if m.page(pg(1)).wts != 0 {
		t.Fatal("aborted write changed wts")
	}
	if !m.Quiesced() {
		t.Fatal("manager not quiesced")
	}
}

func TestAbortDeniesOwnBlockedRead(t *testing.T) {
	s := sim.New(1)
	m := New().NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	w := newCo(1, 10)
	r := newCo(2, 20)
	m.Access(w, pg(1), true)
	var out cc.Outcome
	simtest.Go(s, cctest.Access(m, r, pg(1), false, &out))
	simtest.Go(s, simtest.Delay(3), simtest.Do(func() {
		r.Txn.AbortRequested = true
		m.Abort(r) // the reader's own transaction aborts while blocked
	}))
	s.Run(1000)
	if out != cc.Aborted {
		t.Fatalf("blocked reader %v after own abort, want aborted", out)
	}
	if len(m.page(pg(1)).blocked) != 0 {
		t.Fatal("blocked entry leaked")
	}
}

func TestCommitIdempotentAndUnknownCohort(t *testing.T) {
	m := newMgr()
	co := newCo(1, 10)
	m.Access(co, pg(1), true)
	co.Txn.State = cc.Committing
	m.Commit(co)
	m.Commit(co) // idempotent
	m.Abort(co)  // after commit: no-op
	unknown := newCo(9, 99)
	m.Commit(unknown) // never accessed: no-op
	m.Abort(unknown)
	if m.page(pg(1)).wts != 10 {
		t.Fatal("commit did not install write")
	}
}

func TestAccessAfterAbortRequestedRejected(t *testing.T) {
	m := newMgr()
	co := newCo(1, 10)
	co.Txn.AbortRequested = true
	if m.Access(co, pg(1), false) != cc.Aborted {
		t.Fatal("aborting transaction's access granted")
	}
}

func TestRTSAdvancesMonotonically(t *testing.T) {
	m := newMgr()
	m.Access(newCo(1, 10), pg(1), false)
	m.Access(newCo(2, 5), pg(1), false) // smaller ts: rts must stay 10
	if m.page(pg(1)).rts != 10 {
		t.Fatalf("rts %d, want 10", m.page(pg(1)).rts)
	}
	m.Access(newCo(3, 30), pg(1), false)
	if m.page(pg(1)).rts != 30 {
		t.Fatalf("rts %d, want 30", m.page(pg(1)).rts)
	}
}

func TestReadThenWriteSamePageByOneCohort(t *testing.T) {
	// The upgrade path: read at ts, then write at ts on the same page.
	m := newMgr()
	co := newCo(1, 10)
	if m.Access(co, pg(1), false) != cc.Granted {
		t.Fatal("read rejected")
	}
	if m.Access(co, pg(1), true) != cc.Granted {
		t.Fatal("own write after own read rejected")
	}
	co.Txn.State = cc.Committing
	m.Commit(co)
	if m.page(pg(1)).wts != 10 || m.page(pg(1)).rts != 10 {
		t.Fatalf("wts/rts %d/%d, want 10/10", m.page(pg(1)).wts, m.page(pg(1)).rts)
	}
}

func TestDuplicateWriteIdempotent(t *testing.T) {
	m := newMgr()
	co := newCo(1, 10)
	m.Access(co, pg(1), true)
	m.Access(co, pg(1), true) // re-request must not duplicate the pending entry
	if n := len(m.page(pg(1)).pending); n != 1 {
		t.Fatalf("pending entries %d, want 1", n)
	}
}
