package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Exporters. Both formats are deterministic byte-for-byte given the same
// log: fields are written in a fixed order and events in recording order,
// so golden-file tests can diff the output of a seeded run directly.

// Chrome trace-event mapping (loadable in Perfetto / chrome://tracing):
// one "process" per simulated node, one "thread" per transaction attempt
// for the transaction-scoped events (see attemptTid). Node-scoped activity
// gets synthetic threads — tid -1 for the CPU's busy periods, tid
// -(2+spindle) for each disk spindle — on which spans are serial by
// construction. Message transits become async begin/end pairs (ph
// "b"/"e"), which Perfetto renders on a per-process async track without
// any nesting requirement.
const (
	cpuTid      = -1
	diskTidBase = -2
	// attemptShift places attempt k > 1 of transaction txn on tid
	// k<<attemptShift | txn.
	attemptShift = 32
)

// attemptTid is the track of a transaction-scoped event: tid = txn for a
// transaction's first attempt, and a track of its own for every later
// one. The attempts of one transaction can overlap at a node — an aborted
// attempt's cohort may still be finishing its in-flight access when the
// restarted attempt's cohort starts there — and spans on one track must
// nest. A later attempt's tid lies above every transaction id below
// 2^attemptShift, and all of them above the negative resource tids.
func attemptTid(txn int64, attempt int) int64 {
	if attempt <= 1 {
		return txn
	}
	return int64(attempt)<<attemptShift | txn
}

// WriteChromeTrace renders the log as Chrome trace-event JSON. host is
// the host node's id (used only for process naming; the convention is
// host == number of processing nodes).
//
// Each entry is appended into one reused buffer with strconv, field by
// field in a fixed order, so the per-event path needs no reflection, no
// fmt and no allocation. The bytes are exactly what encoding/json makes
// of the entry as a struct with omitempty on dur, the metadata tid and
// the args fields: floats follow its rule (appendJSONFloat), and a
// string that it would escape is handed to it (appendJSONString).
func WriteChromeTrace(w io.Writer, log *Log, host int) error {
	e := chromeEncoder{w: w, buf: make([]byte, 0, chromeFlushAt+1024), first: true}
	e.raw("{\"traceEvents\":[\n")

	// Process (and resource-thread) name metadata for every node that
	// appears, in node order.
	var tracks chromeTracks
	for c := 0; c < log.numChunks(); c++ {
		seg := log.segment(c)
		for j := range seg {
			tracks.note(&seg[j])
		}
	}
	for n, seen := range tracks.nodes {
		if !seen {
			continue
		}
		e.begin()
		e.raw(`{"name":"process_name","ph":"M","pid":`)
		e.int(int64(n))
		e.raw(`,"args":{"name":`)
		if n == host {
			e.raw(`"host"`)
		} else {
			e.raw(`"node `)
			e.int(int64(n))
			e.raw(`"`)
		}
		e.raw(`}}`)
		e.begin()
		e.raw(`{"name":"thread_name","ph":"M","pid":`)
		e.int(int64(n))
		e.raw(`,"tid":`)
		e.int(cpuTid)
		e.raw(`,"args":{"name":"cpu"}}`)
		for k, seen := range tracks.spindles[n] {
			if !seen {
				continue
			}
			e.begin()
			e.raw(`{"name":"thread_name","ph":"M","pid":`)
			e.int(int64(n))
			e.raw(`,"tid":`)
			e.int(diskTidBase - int64(k))
			e.raw(`,"args":{"name":"disk `)
			e.int(int64(k))
			e.raw(`"}}`)
		}
	}

	// Details are quoted once per export, not once per event.
	var details [][]byte
	if log != nil {
		details = make([][]byte, len(log.details)+1)
		for k, d := range log.details {
			details[k+1] = appendJSONString(nil, d)
		}
	}
	for c := 0; c < log.numChunks(); c++ {
		seg := log.segment(c)
		for j := range seg {
			r := &seg[j]
			e.event(r, c*chunkLen+j, details[r.detail])
			if len(e.buf) >= chromeFlushAt {
				e.flush()
			}
		}
	}
	e.raw("\n]}\n")
	e.flush()
	return e.err
}

// chromeFlushAt is the buffered output size at which the encoder writes
// through to the underlying writer.
const chromeFlushAt = 64 << 10

// chromeTracks collects the nodes and disk spindles that appear in a log.
// Node ids and spindle indexes are never negative.
type chromeTracks struct {
	nodes    []bool   // by node id
	spindles [][]bool // by node id, then spindle
}

func (t *chromeTracks) note(r *record) {
	t.node(r.node)
	switch r.kind {
	case KindMessage:
		t.node(r.lane)
	case KindDisk:
		s := t.spindles[r.node]
		for len(s) <= int(r.lane) {
			s = append(s, false)
		}
		s[r.lane] = true
		t.spindles[r.node] = s
	}
}

func (t *chromeTracks) node(n int32) {
	for len(t.nodes) <= int(n) {
		t.nodes = append(t.nodes, false)
		t.spindles = append(t.spindles, nil)
	}
	t.nodes[n] = true
}

// chromeEncoder appends trace entries to buf and writes buf through to w
// in large pieces. The first error sticks.
type chromeEncoder struct {
	w     io.Writer
	buf   []byte
	first bool
	err   error
}

func (e *chromeEncoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *chromeEncoder) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// begin separates an entry from the one before it.
func (e *chromeEncoder) begin() {
	if !e.first {
		e.raw(",\n")
	}
	e.first = false
}

// float appends f; JSON has no NaN or infinity, so either is an error.
func (e *chromeEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("obs: unsupported value %v in a Chrome trace", f)
		}
		return
	}
	e.buf = appendJSONFloat(e.buf, f)
}

func (e *chromeEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// head opens an entry: name, phase and timestamp.
func (e *chromeEncoder) head(name Name, ph string, ts float64) {
	e.begin()
	e.raw(`{"name":`)
	e.buf = appendJSONString(e.buf, name.String())
	e.raw(`,"ph":"`)
	e.raw(ph)
	e.raw(`","ts":`)
	e.float(ts)
}

// dur appends the duration field, omitted at zero.
func (e *chromeEncoder) dur(d float64) {
	if d != 0 {
		e.raw(`,"dur":`)
		e.float(d)
	}
}

// track appends the process and thread ids.
func (e *chromeEncoder) track(pid int32, tid int64) {
	e.raw(`,"pid":`)
	e.int(int64(pid))
	e.raw(`,"tid":`)
	e.int(tid)
}

// args appends the transaction arguments, each omitted at its zero value.
func (e *chromeEncoder) args(txn int64, attempt int32, detail []byte) {
	e.raw(`,"args":{`)
	sep := false
	if txn != 0 {
		e.raw(`"txn":`)
		e.int(txn)
		sep = true
	}
	if attempt != 0 {
		if sep {
			e.raw(",")
		}
		e.raw(`"attempt":`)
		e.int(int64(attempt))
		sep = true
	}
	if len(detail) > 0 {
		if sep {
			e.raw(",")
		}
		e.raw(`"detail":`)
		e.buf = append(e.buf, detail...)
	}
	e.raw("}")
}

// event appends the entries of record r, the i-th of the log; detail is
// its quoted detail string, nil when it has none. ts and dur are
// microseconds (the format's unit): simulated milliseconds times 1000.
func (e *chromeEncoder) event(r *record, i int, detail []byte) {
	ts := r.start * 1000
	dur := (r.end - r.start) * 1000
	switch r.kind {
	case KindMessage:
		id := int64(i + 1)
		e.head(r.name, "b", ts)
		e.track(r.node, 0)
		e.raw(`,"cat":"net","id":`)
		e.int(id)
		e.raw(`,"args":{"detail":"`)
		e.int(int64(r.node))
		e.raw(" to ")
		e.int(int64(r.lane))
		e.raw(`"}}`)
		e.head(r.name, "e", r.end*1000)
		e.track(r.node, 0)
		e.raw(`,"cat":"net","id":`)
		e.int(id)
		e.raw("}")
	case KindCPU:
		e.head(r.name, "X", ts)
		e.dur(dur)
		e.track(r.node, cpuTid)
		e.raw("}")
	case KindDisk:
		e.head(r.name, "X", ts)
		e.dur(dur)
		e.track(r.node, diskTidBase-int64(r.lane))
		e.raw("}")
	case KindInstant:
		e.head(r.name, "i", ts)
		e.track(r.node, attemptTid(r.txn, int(r.attempt)))
		e.raw(`,"s":"t"`)
		if r.txn != 0 || detail != nil {
			e.args(r.txn, r.attempt, detail)
		}
		e.raw("}")
	default: // txn, cohort, cc-wait, commit-phase, fault
		e.head(r.name, "X", ts)
		e.dur(dur)
		e.track(r.node, attemptTid(r.txn, int(r.attempt)))
		e.args(r.txn, r.attempt, detail)
		e.raw("}")
	}
}

// appendJSONFloat appends f as encoding/json renders a float64: the
// shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with
// a one-digit negative exponent unpadded (e-7, not e-07). f is finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted. A string holding any byte that
// encoding/json escapes by default — a quote, a backslash, a control
// byte, <, > or &, or any non-ASCII byte — is rendered by encoding/json
// itself; every other string is copied as is.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonlEvent is the JSONL wire form of an Event.
type jsonlEvent struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Node    int     `json:"node"`
	Lane    int     `json:"lane,omitempty"`
	Txn     int64   `json:"txn,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Start   float64 `json:"start_ms"`
	End     float64 `json:"end_ms"`
	Detail  string  `json:"detail,omitempty"`
}

// WriteJSONL renders the log as one JSON object per line, in recording
// order.
func WriteJSONL(w io.Writer, log *Log) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := 0; i < log.Len(); i++ {
		e := log.At(i)
		if err := enc.Encode(jsonlEvent{
			Kind: e.Kind.String(), Name: e.Name, Node: e.Node, Lane: e.Lane,
			Txn: e.Txn, Attempt: e.Attempt, Start: e.Start, End: e.End, Detail: e.Detail,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a WriteJSONL stream back into events.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(text, &je); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		kind, err := ParseKind(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		out = append(out, Event{
			Kind: kind, Name: je.Name, Node: je.Node, Lane: je.Lane,
			Txn: je.Txn, Attempt: je.Attempt, Start: je.Start, End: je.End, Detail: je.Detail,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckChromeTrace validates a WriteChromeTrace output structurally: the
// JSON must parse, complete ("X") spans on every (pid, tid) track must
// nest properly (no partial overlap), and the model hierarchy must hold —
// every commit-phase span lies inside the recorded attempt span of its
// (txn, attempt), and every cohort and cc-wait span starts inside it.
// Cohorts and cc-waits are held only to the start-side bound because the
// abort path races past the coordinator: the protocol's abort fanout can
// resolve the attempt before a remote cohort drains its in-flight access
// and ends its span. Spans whose attempt span was never recorded (the
// coordinator was killed at simulation shutdown) are exempt, but at least
// one attempt must contain a scoped span, so the check cannot pass
// vacuously on a non-trivial trace.
func CheckChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int64   `json:"tid"`
			Args struct {
				Txn     int64 `json:"txn"`
				Attempt int   `json:"attempt"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace JSON does not parse: %w", err)
	}

	// Tolerance for boundary comparisons: one simulated nanosecond (ts
	// values are µs). Reconstructing a span's end as ts+dur loses a few
	// ulps against the other span's independently scaled boundary, which
	// at 1e8 µs magnitudes is ~1e-8 — well under this eps, which in turn
	// is far below any meaningful span duration in the model.
	const eps = 1e-3
	type span struct {
		name       string
		start, end float64
		txn        int64
		attempt    int
	}
	tracks := map[[2]int64][]span{}
	attempts := map[[2]int64]span{}
	var scoped []span // cohort / cc-wait / commit-phase spans
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{name: e.Name, start: e.Ts, end: e.Ts + e.Dur, txn: e.Args.Txn, attempt: e.Args.Attempt}
		if s.end < s.start {
			return fmt.Errorf("obs: span %q at ts=%v has negative duration", e.Name, e.Ts)
		}
		key := [2]int64{int64(e.Pid), e.Tid}
		tracks[key] = append(tracks[key], s)
		switch e.Name {
		case "attempt":
			attempts[[2]int64{s.txn, int64(s.attempt)}] = s
		case "cohort", "cc-wait", "prepare", "decide", "resolve":
			scoped = append(scoped, s)
		}
	}

	// Per-track nesting: sorted by start (longer span first at ties), a
	// stack of open spans must always contain each new span entirely.
	// Tracks are visited in sorted key order so the first reported
	// violation is deterministic.
	keys := make([][2]int64, 0, len(tracks))
	for key := range tracks {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for _, key := range keys {
		spans := tracks[key]
		slices.SortFunc(spans, func(a, b span) int {
			if c := cmp.Compare(a.start, b.start); c != 0 {
				return c
			}
			return cmp.Compare(b.end, a.end)
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end+eps {
				top := stack[len(stack)-1]
				// Two spans opened at the same sim instant can sort in
				// child-before-parent order: boundaries recorded via
				// different float paths (e.g. a cc-wait start rebuilt as
				// now-duration) differ by ulps. If this pair started
				// together within eps, the longer span is the parent —
				// reinsert in that order and carry on.
				if s.start-top.start <= eps && (len(stack) == 1 || s.end <= stack[len(stack)-2].end+eps) {
					stack[len(stack)-1] = s
					stack = append(stack, top)
					continue
				}
				return fmt.Errorf("obs: track pid=%d tid=%d: span %q [%v,%v] partially overlaps %q [%v,%v]",
					key[0], key[1], s.name, s.start, s.end, top.name, top.start, top.end)
			}
			stack = append(stack, s)
		}
	}

	// Hierarchy against the attempt span (see the doc comment for why
	// cohorts and cc-waits are bounded on the start side only).
	contained := 0
	for _, s := range scoped {
		a, ok := attempts[[2]int64{s.txn, int64(s.attempt)}]
		if !ok {
			continue // coordinator killed at shutdown; attempt never recorded
		}
		fullContainment := s.name == "prepare" || s.name == "decide" || s.name == "resolve"
		if s.start < a.start-eps || s.start > a.end+eps ||
			(fullContainment && s.end > a.end+eps) {
			return fmt.Errorf("obs: %q span [%v,%v] of txn %d attempt %d escapes its attempt span [%v,%v]",
				s.name, s.start, s.end, s.txn, s.attempt, a.start, a.end)
		}
		contained++
	}
	if len(attempts) > 0 && contained == 0 {
		return fmt.Errorf("obs: %d attempt spans but no contained cohort/phase spans; hierarchy check is vacuous", len(attempts))
	}
	return nil
}
