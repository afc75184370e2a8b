package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/core"
	"ddbm/internal/fault"
	"ddbm/internal/obs"
	"ddbm/internal/sim"
)

// The Chrome exporter appends every entry by hand; the reference below
// renders the same entries as structs through encoding/json, the way the
// exporter did before. The two must agree byte for byte on real runs and
// on hand-built records that reach the float format switch, a zero
// duration and every escaped byte class.
func TestChromeEncoderMatchesReference(t *testing.T) {
	golden := core.DefaultConfig()
	golden.Algorithm = cc.TwoPL
	golden.NumProcNodes, golden.NumTerminals, golden.PagesPerFile = 2, 4, 50
	golden.ThinkTimeMs, golden.SimTimeMs, golden.WarmupMs, golden.Seed = 50, 300, 0, 3

	table4 := core.DefaultConfig()
	table4.ThinkTimeMs, table4.Seed = 4000, 103
	table4.SimTimeMs, table4.WarmupMs = 10_000, 1_000

	faults := core.DefaultConfig()
	faults.ThinkTimeMs, faults.Seed = 4000, 5
	faults.SimTimeMs, faults.WarmupMs = 60_000, 10_000
	faults.CommitProtocol = commit.PresumedAbort
	faults.ModelLogging = true
	faults.Faults = fault.Config{Enabled: true, NodeMTTFMs: 20_000, MTTRMs: 1_000, DetectMs: 100,
		DropProb: 0.01, RetransmitDelayMs: 50}

	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"golden", golden}, {"table4-seed103", table4}, {"faults-PA", faults}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := core.NewMachine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := m.EnableTracing()
			res := m.Run()
			if tc.cfg.Faults.Enabled && (res.Crashes == 0 || res.MessagesLost == 0) {
				t.Fatalf("%d crashes and %d lost messages; the fault paths are not exercised", res.Crashes, res.MessagesLost)
			}
			got := compareWithReference(t, tr.Events(), tc.cfg.NumProcNodes)
			if tc.name == "golden" {
				want, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("the golden run does not render the golden Chrome trace")
				}
			}
		})
	}

	// Hand-built records, each recorded at its end time through the
	// tracer's own entry points: zero durations, times that render in
	// e-notation at both ends of the range, and details that each need
	// one kind of escape.
	t.Run("hand-built", func(t *testing.T) {
		s := sim.New(1)
		tr := obs.NewTracer(s)
		at := func(end sim.Time, record func()) { s.Schedule(end, record) }
		at(0, func() { tr.Instant(obs.NameCrash, 1, 0, 0, "") })
		at(0, func() { tr.Instant(obs.NameHostCrash, 3, 0, 0, `say "hi"`) })
		at(1e-10, func() { tr.Instant(obs.NameAborted, 3, 9, 2, `back\slash`) })
		at(2e-10, func() { tr.Complete(obs.KindCohort, obs.NameCohort, 0, 1<<40, 1, 1e-10) })
		at(0.5, func() { tr.Instant(obs.NameDecided, 3, 9, 0, "a<b") })
		at(0.5, func() { tr.Instant(obs.NameCCReject, 0, 9, 1, "c>d") })
		at(0.5, func() { tr.Complete(obs.KindCommitPhase, obs.NamePrepare, 3, 5, 3, 0.25) })
		at(1, func() { tr.DiskAccess(0, 2, false, 1) })
		at(3.000001, func() { tr.DiskAccess(4, 0, true, 3) })
		at(4, func() { tr.Complete(obs.KindTxn, obs.NameAttempt, 3, 9, 2, 4) })
		at(4, func() { tr.Instant(obs.NameSubmitted, 3, 10, 1, "x&y") })
		at(7, func() { tr.CPUBusy(2, 7) })
		at(7, func() { tr.Instant(obs.NameCCReject, 1, 11, 1, "ctl\x01") })
		at(10.5, func() { tr.Complete(obs.KindFault, obs.NameDown, 2, 0, 0, 10) })
		at(10.5, func() { tr.Instant(obs.NameCommitted, 3, 12, 1, "h\u00e9llo\u2028") })
		at(10.5, func() { tr.Instant(obs.NameDecided, 3, 12, 1, "bad\xff") })
		at(123457.5, func() { tr.CPUBusy(2, 123456.789) })
		at(6e18, func() { tr.Complete(obs.KindCCWait, obs.NameCCWait, 0, 5, 3, 5e18) })
		at(1e22, func() { tr.Message(3, 2, 1e-9) })
		s.Run(1e22)
		compareWithReference(t, tr.Events(), 3)
	})
}

// compareWithReference renders log with the exporter and with the
// reference and fails on the first differing line; it returns the
// exporter's bytes.
func compareWithReference(t *testing.T, log *obs.Log, host int) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := obs.WriteChromeTrace(&got, log, host); err != nil {
		t.Fatal(err)
	}
	events := make([]obs.Event, log.Len())
	for i := range events {
		events[i] = log.At(i)
	}
	if err := referenceChromeTrace(&want, events, host); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := 0; i < min(len(g), len(w)); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("line %d differs:\ngot  %s\nwant %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("output has %d lines, the reference %d", len(g), len(w))
	}
	return got.Bytes()
}

// referenceChromeTrace is the struct-and-encoding/json rendering of a
// Chrome trace, kept as the reference the exporter is held to.
func referenceChromeTrace(w io.Writer, events []obs.Event, host int) error {
	type chromeArgs struct {
		Txn     int64  `json:"txn,omitempty"`
		Attempt int    `json:"attempt,omitempty"`
		Detail  string `json:"detail,omitempty"`
	}
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
	type chromeMeta struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int64  `json:"tid,omitempty"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	}
	const cpuTid, diskTidBase = -1, -2
	attemptTid := func(txn int64, attempt int) int64 {
		if attempt <= 1 {
			return txn
		}
		return int64(attempt)<<32 | txn
	}

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

	nodes := map[int]bool{}
	disks := map[[2]int]bool{}
	maxSpindle := map[int]int{}
	for i := range events {
		nodes[events[i].Node] = true
		if events[i].Kind == obs.KindMessage {
			nodes[events[i].Lane] = true
		}
		if events[i].Kind == obs.KindDisk {
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
		var err error
		switch e.Kind {
		case obs.KindMessage:
			err = emit(chromeEvent{Name: e.Name, Ph: "b", Ts: ts, Pid: e.Node, Cat: "net", ID: i + 1,
				Args: &chromeArgs{Detail: fmt.Sprintf("%d to %d", e.Node, e.Lane)}})
			if err == nil {
				err = emit(chromeEvent{Name: e.Name, Ph: "e", Ts: e.End * 1000, Pid: e.Node, Cat: "net", ID: i + 1})
			}
		case obs.KindCPU:
			err = emit(chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: dur, Pid: e.Node, Tid: cpuTid})
		case obs.KindDisk:
			err = emit(chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: dur, Pid: e.Node, Tid: diskTidBase - int64(e.Lane)})
		case obs.KindInstant:
			ev := chromeEvent{Name: e.Name, Ph: "i", Ts: ts, Pid: e.Node, Tid: attemptTid(e.Txn, e.Attempt), S: "t"}
			if e.Txn != 0 || e.Detail != "" {
				ev.Args = &chromeArgs{Txn: e.Txn, Attempt: e.Attempt, Detail: e.Detail}
			}
			err = emit(ev)
		default:
			err = emit(chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: dur, Pid: e.Node, Tid: attemptTid(e.Txn, e.Attempt),
				Args: &chromeArgs{Txn: e.Txn, Attempt: e.Attempt, Detail: e.Detail}})
		}
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
