package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Exporters. Both formats are deterministic byte-for-byte given the same
// event list: structs marshal with fixed field order and events are
// written in recording order, so golden-file tests can diff the output of
// a seeded run directly.

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

// chromeEvent is one trace-event entry; fields follow the Chrome
// trace-event format. Ts and Dur are microseconds (the format's unit);
// simulated milliseconds are scaled by 1000 on export.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int64       `json:"tid"`
	S    string      `json:"s,omitempty"`
	Cat  string      `json:"cat,omitempty"`
	ID   int         `json:"id,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Txn     int64  `json:"txn,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

type chromeMeta struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int64  `json:"tid,omitempty"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// WriteChromeTrace renders the events as Chrome trace-event JSON. host is
// the host node's id (used only for process naming; the convention is
// host == number of processing nodes).
func WriteChromeTrace(w io.Writer, events []Event, host int) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(data)
		return err
	}

	// Process (and resource-thread) name metadata for every node that
	// appears, in node order.
	nodes := map[int]bool{}
	disks := map[[2]int]bool{}
	maxSpindle := map[int]int{}
	for i := range events {
		nodes[events[i].Node] = true
		if events[i].Kind == KindMessage {
			nodes[events[i].Lane] = true
		}
		if events[i].Kind == KindDisk {
			disks[[2]int{events[i].Node, events[i].Lane}] = true
			if events[i].Lane > maxSpindle[events[i].Node] {
				maxSpindle[events[i].Node] = events[i].Lane
			}
		}
	}
	ids := make([]int, 0, len(nodes))
	for n := range nodes {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	for _, n := range ids {
		m := chromeMeta{Name: "process_name", Ph: "M", Pid: n}
		if n == host {
			m.Args.Name = "host"
		} else {
			m.Args.Name = fmt.Sprintf("node %d", n)
		}
		if err := emit(m); err != nil {
			return err
		}
		t := chromeMeta{Name: "thread_name", Ph: "M", Pid: n, Tid: cpuTid}
		t.Args.Name = "cpu"
		if err := emit(t); err != nil {
			return err
		}
		for k := 0; k <= maxSpindle[n]; k++ {
			if !disks[[2]int{n, k}] {
				continue
			}
			d := chromeMeta{Name: "thread_name", Ph: "M", Pid: n, Tid: diskTidBase - int64(k)}
			d.Args.Name = fmt.Sprintf("disk %d", k)
			if err := emit(d); err != nil {
				return err
			}
		}
	}

	for i := range events {
		e := &events[i]
		ts := e.Start * 1000
		dur := (e.End - e.Start) * 1000
		switch e.Kind {
		case KindMessage:
			b := chromeEvent{Name: e.Name, Ph: "b", Ts: ts, Pid: e.Node, Cat: "net", ID: i + 1,
				Args: &chromeArgs{Detail: fmt.Sprintf("%d to %d", e.Node, e.Lane)}}
			if err := emit(b); err != nil {
				return err
			}
			en := chromeEvent{Name: e.Name, Ph: "e", Ts: e.End * 1000, Pid: e.Node, Cat: "net", ID: i + 1}
			if err := emit(en); err != nil {
				return err
			}
		case KindCPU:
			if err := emit(chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: dur, Pid: e.Node, Tid: cpuTid}); err != nil {
				return err
			}
		case KindDisk:
			if err := emit(chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: dur, Pid: e.Node,
				Tid: diskTidBase - int64(e.Lane)}); err != nil {
				return err
			}
		case KindInstant:
			ev := chromeEvent{Name: e.Name, Ph: "i", Ts: ts, Pid: e.Node, Tid: attemptTid(e.Txn, e.Attempt), S: "t"}
			if e.Txn != 0 || e.Detail != "" {
				ev.Args = &chromeArgs{Txn: e.Txn, Attempt: e.Attempt, Detail: e.Detail}
			}
			if err := emit(ev); err != nil {
				return err
			}
		default: // txn, cohort, cc-wait, commit-phase
			ev := chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: dur, Pid: e.Node, Tid: attemptTid(e.Txn, e.Attempt),
				Args: &chromeArgs{Txn: e.Txn, Attempt: e.Attempt, Detail: e.Detail}}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
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

// WriteJSONL renders the events as one JSON object per line, in
// recording order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		e := &events[i]
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
