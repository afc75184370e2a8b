package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ddbm/internal/sim"
)

// The disabled tracer is a nil pointer: every method must be a no-op with
// zero allocations, so instrumented hot paths cost only a pointer test.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		tr.Complete(KindCCWait, "cc-wait", 0, 1, 1, 0)
		tr.Instant("submitted", 0, 1, 1, "")
		tr.Message(0, 1, 0)
		tr.CPUBusy(0, 0)
		tr.DiskAccess(0, 2, true, 0)
		tr.Reserve(128)
		if tr.Events() != nil || tr.Len() != 0 {
			t.Fatal("nil tracer must record nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v times per op; want 0", allocs)
	}
}

// Enabled steady state: with the event buffer reserved, recording must
// not allocate.
func TestEnabledSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s)
	tr.Reserve(4096)
	allocs := testing.AllocsPerRun(500, func() {
		tr.Complete(KindTxn, "attempt", 0, 7, 2, 0)
		tr.Complete(KindCCWait, "cc-wait", 1, 7, 2, 0)
		tr.Instant("committed", 0, 7, 2, "")
		tr.DiskAccess(1, 0, false, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state recording allocated %v times per op; want 0", allocs)
	}
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindTxn; k <= KindInstant; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip of %v failed: got %v, err %v", k, got, err)
		}
	}
	if s := Kind(99).String(); s != "Kind(99)" {
		t.Fatalf("out-of-range kind string = %q", s)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

// testEvents returns a tiny but representative event set: a txn attempt
// containing a cohort, a cc-wait and the three commit phases, plus
// node-scoped resource and message activity and an instant.
func testEvents() []Event {
	return []Event{
		{Kind: KindInstant, Name: "submitted", Node: 2, Txn: 1, Attempt: 1, Start: 0, End: 0},
		{Kind: KindMessage, Name: "msg", Node: 2, Lane: 0, Start: 0.5, End: 1.0},
		{Kind: KindCPU, Name: "cpu", Node: 0, Start: 1.0, End: 3.5},
		{Kind: KindDisk, Name: "read", Node: 0, Lane: 1, Start: 1.5, End: 3.0},
		{Kind: KindCCWait, Name: "cc-wait", Node: 0, Txn: 1, Attempt: 1, Start: 3.0, End: 4.0},
		{Kind: KindCohort, Name: "cohort", Node: 0, Txn: 1, Attempt: 1, Start: 1.0, End: 5.0},
		{Kind: KindCommitPhase, Name: "prepare", Node: 2, Txn: 1, Attempt: 1, Start: 5.5, End: 6.5},
		{Kind: KindCommitPhase, Name: "decide", Node: 2, Txn: 1, Attempt: 1, Start: 6.5, End: 7.0},
		{Kind: KindCommitPhase, Name: "resolve", Node: 2, Txn: 1, Attempt: 1, Start: 7.0, End: 7.5},
		{Kind: KindTxn, Name: "attempt", Node: 2, Txn: 1, Attempt: 1, Start: 0.25, End: 8.0},
		{Kind: KindDisk, Name: "write", Node: 2, Lane: 0, Start: 6.0, End: 7.0, Detail: "log force"},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := testEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"txn\"}\nnot json\n")); err == nil {
		t.Fatal("ReadJSONL accepted malformed input")
	}
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"mystery\"}\n")); err == nil {
		t.Fatal("ReadJSONL accepted an unknown kind")
	}
}

func TestWriteChromeTracePassesCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, testEvents(), 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"host"`, `"node 0"`, `"disk 1"`, `"cpu"`, `"ph":"b"`, `"ph":"e"`, `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %s", want)
		}
	}
	if err := CheckChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("structurally valid trace rejected: %v", err)
	}
}

func TestCheckChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{
			name: "not json",
			doc:  "{",
			want: "does not parse",
		},
		{
			name: "partial overlap",
			doc: `{"traceEvents":[
				{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},
				{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}
			]}`,
			want: "partially overlaps",
		},
		{
			name: "escapes attempt",
			doc: `{"traceEvents":[
				{"name":"attempt","ph":"X","ts":10,"dur":10,"pid":2,"tid":1,"args":{"txn":1,"attempt":1}},
				{"name":"cohort","ph":"X","ts":5,"dur":10,"pid":0,"tid":1,"args":{"txn":1,"attempt":1}}
			]}`,
			want: "escapes its attempt span",
		},
		{
			name: "vacuous hierarchy",
			doc: `{"traceEvents":[
				{"name":"attempt","ph":"X","ts":0,"dur":10,"pid":2,"tid":1,"args":{"txn":1,"attempt":1}}
			]}`,
			want: "vacuous",
		},
	}
	for _, tc := range cases {
		err := CheckChromeTrace([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v; want containing %q", tc.name, err, tc.want)
		}
	}
}

// Two spans opened at the same sim instant can carry boundaries computed
// through different float paths (a cc-wait start is rebuilt as
// now-duration), so the child can sort a few ulps before its parent. The
// checker must recognize the tie instead of reporting partial overlap.
func TestCheckChromeTraceSameStartTie(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"attempt","ph":"X","ts":0,"dur":100,"pid":2,"tid":1,"args":{"txn":1,"attempt":1}},
		{"name":"cohort","ph":"X","ts":10.0000001,"dur":50,"pid":0,"tid":1,"args":{"txn":1,"attempt":1}},
		{"name":"cc-wait","ph":"X","ts":10,"dur":30,"pid":0,"tid":1,"args":{"txn":1,"attempt":1}}
	]}`
	if err := CheckChromeTrace([]byte(doc)); err != nil {
		t.Fatalf("same-instant parent/child tie rejected: %v", err)
	}
}

// A cohort span whose attempt never recorded (coordinator killed at
// shutdown) is exempt from containment — but only if some other attempt
// still proves the hierarchy.
func TestCheckChromeTraceShutdownExemption(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"attempt","ph":"X","ts":0,"dur":10,"pid":2,"tid":1,"args":{"txn":1,"attempt":1}},
		{"name":"cohort","ph":"X","ts":2,"dur":4,"pid":0,"tid":1,"args":{"txn":1,"attempt":1}},
		{"name":"cohort","ph":"X","ts":50,"dur":4,"pid":0,"tid":9,"args":{"txn":9,"attempt":1}}
	]}`
	if err := CheckChromeTrace([]byte(doc)); err != nil {
		t.Fatalf("trace with orphan cohort (killed coordinator) rejected: %v", err)
	}
}
