package core

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/obs"
)

// lifecycleEvents decodes the transaction life-cycle instants of a trace,
// in recording order.
func lifecycleEvents(tr *obs.Tracer) []obs.Event {
	log := tr.Events()
	var out []obs.Event
	for i := 0; i < log.Len(); i++ {
		if e := log.At(i); e.Lifecycle() {
			out = append(out, e)
		}
	}
	return out
}

// The life-cycle instants in the trace log tell each transaction's story
// in order: submitted first, attempts numbered from 1, an abort (with its
// reason) before the next attempt, committed last when present.
func TestTxnObserverLifecycle(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.PagesPerFile = 40
	cfg.ThinkTimeMs = 0
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	res := m.Run()
	if res.Commits == 0 {
		t.Fatal("no commits")
	}

	perTxn := map[int64][]obs.Event{}
	for _, e := range lifecycleEvents(tr) {
		if e.Start < 0 {
			t.Fatal("negative event time")
		}
		if e.Node != m.hostID {
			t.Fatalf("life-cycle instant %q at node %d, want the host", e.Name, e.Node)
		}
		perTxn[e.Txn] = append(perTxn[e.Txn], e)
	}
	committed := 0
	aborted := 0
	for id, evs := range perTxn {
		if evs[0].Name != "submitted" {
			t.Fatalf("txn %d first event %v, want submitted", id, evs[0].Name)
		}
		attempt := 0
		for _, e := range evs[1:] {
			switch e.Name {
			case "attempt":
				attempt++
				if e.Attempt != attempt {
					t.Fatalf("txn %d attempt numbering %d, want %d", id, e.Attempt, attempt)
				}
			case "aborted":
				aborted++
				if e.Detail == "" {
					t.Fatalf("txn %d abort without a reason", id)
				}
			case "committed":
				committed++
			case "submitted":
				t.Fatalf("txn %d submitted twice", id)
			}
		}
	}
	if committed == 0 {
		t.Fatal("the trace shows no commits")
	}
	if aborted == 0 {
		t.Fatal("the trace shows no aborts under heavy contention")
	}
}
