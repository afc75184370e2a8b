package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ddbm/internal/sim"
)

// The disabled tracer is a nil pointer: every method must be a no-op with
// zero allocations, so instrumented hot paths cost only a pointer test.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		tr.Complete(KindCCWait, NameCCWait, 0, 1, 1, 0)
		tr.Instant(NameSubmitted, 0, 1, 1, "")
		tr.Message(0, 1, 0)
		tr.CPUBusy(0, 0)
		tr.DiskAccess(0, 2, true, 0)
		if tr.Events() != nil || tr.Len() != 0 || tr.Events().Len() != 0 {
			t.Fatal("nil tracer must record nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v times per op; want 0", allocs)
	}
}

// Enabled recording allocates only chunks: in steady state, N events
// cost at most ⌈N/chunkLen⌉ allocations, whether N is one event or
// spans chunk boundaries. The chunk directory (one pointer per chunk)
// regrows by doubling, which the average over the runs absorbs; detail
// strings are interned once, so repeating one costs nothing.
func TestEnabledSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{1, 4, chunkLen - 1, chunkLen, 2*chunkLen + 1} {
		s := sim.New(1)
		tr := NewTracer(s)
		runs := max(10, 4*chunkLen/n)
		allocs := testing.AllocsPerRun(runs, func() {
			for i := 0; i < n; i++ {
				switch i % 4 {
				case 0:
					tr.Complete(KindTxn, NameAttempt, 0, 7, 2, 0)
				case 1:
					tr.Complete(KindCCWait, NameCCWait, 1, 7, 2, 0)
				case 2:
					tr.Instant(NameAborted, 0, 7, 2, "local deadlock")
				default:
					tr.DiskAccess(1, 0, false, 0)
				}
			}
		})
		if limit := (n + chunkLen - 1) / chunkLen; allocs > float64(limit) {
			t.Errorf("%d events allocated %v times per run; want at most %d", n, allocs, limit)
		}
		if tr.Len() != (runs+1)*n {
			t.Fatalf("%d events recorded, want %d", tr.Len(), (runs+1)*n)
		}
	}
}

// The stored record must stay pointer-free, so a chunk is a noscan
// allocation the garbage collector never reads, and small.
func TestRecordPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("record field %s is a %v, which can hold a pointer", path, typ.Kind())
		}
	}
	walk("record", reflect.TypeOf(record{}))
	if size := unsafe.Sizeof(record{}); size > 48 {
		t.Errorf("record is %d bytes, want at most 48", size)
	}
}

// Records spread over several chunks must read back the same through
// At, through the exporters' chunk walk (WriteJSONL) and through a JSONL
// round trip; recording never moves an earlier record.
func TestLogAcrossChunks(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s)
	details := []string{"", "commit", "abort", "wounded"}
	var want []Event
	var first *record
	n := 2*chunkLen + 1
	for i := 0; i < n; i++ {
		e := Event{Kind: KindInstant, Name: nameStrings[i%int(numNames)], Node: i % 9, Txn: int64(i) << 20,
			Attempt: i % 5, Detail: details[i%len(details)]}
		tr.Instant(Name(i%int(numNames)), e.Node, e.Txn, e.Attempt, e.Detail)
		want = append(want, e)
		if i == 0 {
			first = &tr.log.chunks[0][0]
		}
	}
	log := tr.Events()
	if log.Len() != n || len(log.chunks) != 3 {
		t.Fatalf("%d events in %d chunks, want %d in 3", log.Len(), len(log.chunks), n)
	}
	if &log.chunks[0][0] != first || first.txn != 0 || first.name != NameSubmitted {
		t.Fatal("recording moved or overwrote the first record")
	}
	got := make([]Event, n)
	for i := range got {
		got[i] = log.At(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("At does not return the recorded events across chunk boundaries")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatal("JSONL round trip across chunk boundaries lost information")
	}
	for _, i := range []int{-1, n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic on a log of %d", i, n)
				}
			}()
			log.At(i)
		}()
	}
}

// appendJSONFloat and appendJSONString must render exactly what
// encoding/json renders, at the format switch points and for every byte
// class the escape rule names.
func TestJSONScalarsMatchEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, -9.99e-7, 1e-7, 1.5e-10, 123456.789,
		1e20, 1e21, -1e21, 1.2345e22, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-100, 3e-5, 1000.0000001}
	for _, f := range floats {
		want, _ := jsonMarshal(f)
		if got := string(appendJSONFloat(nil, f)); got != want {
			t.Errorf("float %v: got %s, want %s", f, got, want)
		}
	}
	strs := []string{"", "plain", "a to b", `say "hi"`, `back\slash`, "a<b", "a>b", "x&y", "tab\t", "ctl\x01",
		"h\u00e9llo", "sep\u2028", "bad\xff", "del\x7f"}
	for _, s := range strs {
		want, _ := jsonMarshal(s)
		if got := string(appendJSONString(nil, s)); got != want {
			t.Errorf("string %q: got %s, want %s", s, got, want)
		}
	}
}

// logOf builds a log holding the given events, so tests can export
// hand-built traces. Every event name must be one of the Name strings.
func logOf(events []Event) *Log {
	l := &Log{}
	for _, e := range events {
		name := numNames
		for n, s := range nameStrings {
			if s == e.Name {
				name = Name(n)
			}
		}
		if name == numNames {
			panic("obs: logOf: unknown event name " + e.Name)
		}
		l.add(record{kind: e.Kind, name: name, node: int32(e.Node), lane: int32(e.Lane),
			txn: e.Txn, attempt: int32(e.Attempt), start: e.Start, end: e.End, detail: l.intern(e.Detail)})
	}
	return l
}

func jsonMarshal(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// Non-finite times cannot be rendered in JSON; the exporter reports an
// error instead of writing an invalid document.
func TestWriteChromeTraceRejectsNonFinite(t *testing.T) {
	log := logOf([]Event{{Kind: KindCPU, Name: "cpu", Start: 0, End: math.Inf(1)}})
	err := WriteChromeTrace(io.Discard, log, 1)
	if err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("got %v, want encoding/json's unsupported-value error", err)
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
	if err := WriteJSONL(&buf, logOf(events)); err != nil {
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
	if err := WriteChromeTrace(&buf, logOf(testEvents()), 2); err != nil {
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

// BenchmarkTracerRecord measures one recorded event, cycling through the
// recorders a traced run calls most.
func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(sim.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		switch i % 5 {
		case 0:
			tr.Message(1, 2, 0)
		case 1:
			tr.CPUBusy(1, 0)
		case 2:
			tr.DiskAccess(1, 0, i%2 == 0, 0)
		case 3:
			tr.Complete(KindCohort, NameCohort, 1, int64(i), 1, 0)
		default:
			tr.Instant(NameDecided, 8, int64(i), 1, "commit")
		}
	}
}

// BenchmarkWriteChromeTrace renders a 64K-event log with the event mix
// of a traced Table 4 run: messages, CPU and disk periods, cohort and
// commit-phase spans, and life-cycle instants with and without details.
func BenchmarkWriteChromeTrace(b *testing.B) {
	l := &Log{}
	for i := 0; i < 1<<16; i++ {
		start := float64(i) * 0.37
		r := record{node: int32(i % 8), start: start, end: start + float64(i%97)*0.125}
		switch i % 8 {
		case 0, 1:
			r.kind, r.name, r.lane = KindMessage, NameMsg, int32((i+3)%9)
		case 2:
			r.kind, r.name = KindCPU, NameCPU
		case 3:
			r.kind, r.name, r.lane = KindDisk, NameRead, int32(i%2)
		case 4:
			r.kind, r.name, r.txn, r.attempt = KindCohort, NameCohort, int64(i/8), 1
		case 5:
			r.kind, r.name, r.txn, r.attempt = KindCommitPhase, NamePrepare, int64(i/8), 1+int32(i%3)
		case 6:
			r.kind, r.name, r.txn, r.attempt, r.end = KindInstant, NameSubmitted, int64(i/8), 1, start
		default:
			r.kind, r.name, r.txn, r.attempt, r.end = KindInstant, NameDecided, int64(i/8), 1, start
			r.detail = l.intern("commit")
		}
		l.add(r)
	}
	var out countingWriter
	if err := WriteChromeTrace(&out, l, 8); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(out.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, l, 8); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
