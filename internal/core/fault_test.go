package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/fault"
	"ddbm/internal/obs"
)

// faultConfig is the contended test configuration with a crash schedule
// aggressive enough that every node fails several times inside the run.
func faultConfig(alg cc.Kind, proto commit.Kind, seed int64) Config {
	cfg := testConfig(alg)
	cfg.CommitProtocol = proto
	cfg.ModelLogging = true
	cfg.Seed = seed
	cfg.Faults = fault.Config{
		Enabled:    true,
		NodeMTTFMs: 30_000,
		MTTRMs:     2_000,
		DetectMs:   500,
	}
	// A much hotter schedule (say MTTF 15s across 4 nodes) still makes
	// progress but collapses throughput legitimately: the paper's restart
	// policy waits one mean response time, and outage-inflated responses
	// feed that delay back into itself.
	return cfg
}

// stripFaultObservation zeroes the Result fields that only the fault layer
// produces, so a faulty-but-idle run can be compared bitwise against a
// fault-free one. The in-doubt gauges are genuinely nonzero with an armed
// injector (every yes-vote opens a window; that vulnerability measurement
// needs no crash), and Availability/Goodput are derived fields the
// fault-free run leaves at zero.
func stripFaultObservation(r *Result) {
	r.Config.Faults = fault.Config{}
	r.Availability = 0
	r.GoodputPerSec = 0
	r.InDoubtTimeMs = 0
	r.InDoubtWindows = 0
	r.BlockedInDoubtMs = 0
}

// TestFaultStreamIsolation is the substream regression test: an armed
// injector whose schedule fires nothing inside the run must leave every
// behavioral metric bit-identical to a run with no injector at all — the
// workload and think-time streams saw the exact same draws, the event
// order never shifted, the floats agree to the last ulp. This is the
// guarantee that fault timing comes from dedicated RNG substreams and the
// fault seams in the transaction path are observation-only until a fault
// actually fires.
func TestFaultStreamIsolation(t *testing.T) {
	for _, alg := range []cc.Kind{cc.TwoPL, cc.WoundWait, cc.BTO, cc.OPT} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(alg)
			cfg.ModelLogging = true
			cfg.SimTimeMs = 30_000
			cfg.WarmupMs = 5_000
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Armed: the first failure of every node lands far beyond the
			// end of the run, so the schedule exists but never fires.
			cfg.Faults = fault.Config{
				Enabled:           true,
				NodeMTTFMs:        100 * cfg.SimTimeMs,
				FixedInterFailure: true,
				MTTRMs:            1_000,
				DetectMs:          100,
			}
			armed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if armed.Crashes != 0 {
				t.Fatalf("idle schedule crashed %d times", armed.Crashes)
			}
			if armed.Availability != 1 {
				t.Errorf("availability %v with no crashes, want 1", armed.Availability)
			}
			if armed.GoodputPerSec != armed.ThroughputTPS {
				t.Errorf("goodput %v != throughput %v with full availability",
					armed.GoodputPerSec, armed.ThroughputTPS)
			}
			stripFaultObservation(&armed)
			if !reflect.DeepEqual(plain, armed) {
				t.Error("an armed-but-idle injector changed the simulation's metrics; the fault substreams leak into the workload stream")
			}
		})
	}
}

// TestFaultCrashRecoveryEndToEnd drives real crash-repair cycles under
// every commit protocol and checks the system keeps working: transactions
// commit between outages, crashes are counted and attributed, the
// availability and goodput accounting stays inside its definition, and the
// recovery machinery actually ran.
func TestFaultCrashRecoveryEndToEnd(t *testing.T) {
	for _, proto := range commit.Kinds() {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			cfg := faultConfig(cc.TwoPL, proto, 7)
			cfg.Breakdown = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashes == 0 {
				t.Fatal("no crashes fired; the schedule did not exercise the path")
			}
			if res.Commits < 50 {
				t.Fatalf("only %d commits across the outages; the system is not making progress", res.Commits)
			}
			if res.Availability <= 0 || res.Availability >= 1 {
				t.Errorf("availability %v with %d crashes, want in (0,1)", res.Availability, res.Crashes)
			}
			if res.GoodputPerSec <= res.ThroughputTPS {
				t.Errorf("goodput %v not above raw throughput %v despite downtime",
					res.GoodputPerSec, res.ThroughputTPS)
			}
			if res.RecoveryTimeMs <= 0 {
				t.Errorf("crashes happened but no recovery time accrued")
			}
			if res.InDoubtWindows == 0 {
				t.Error("no in-doubt windows closed in a logged commit run")
			}
			if res.AbortsByCause["node-crash"] == 0 {
				t.Error("crashes aborted nothing attributed to node-crash")
			}
		})
	}
}

// TestFaultAbortCauseAccounting is the accounting property under faults:
// with crashes, detections and recoveries in play, every aborted attempt
// still lands in exactly one cause bucket — ΣAbortsByCause == Aborts,
// exactly, across four protocol variants and three seeds.
func TestFaultAbortCauseAccounting(t *testing.T) {
	variants := []struct {
		name  string
		alg   cc.Kind
		proto commit.Kind
	}{
		{"2PC-2PL", cc.TwoPL, commit.CentralizedTwoPC},
		{"PA-2PL", cc.TwoPL, commit.PresumedAbort},
		{"PC-2PL", cc.TwoPL, commit.PresumedCommit},
		{"2PC-WW", cc.WoundWait, commit.CentralizedTwoPC},
	}
	for _, tc := range variants {
		for _, seed := range []int64{1, 7, 13} {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s-seed%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := faultConfig(tc.alg, tc.proto, seed)
				cfg.Breakdown = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Crashes == 0 {
					t.Fatal("no crashes fired")
				}
				var aborts int64
				for _, n := range res.AbortsByCause {
					aborts += n
				}
				if aborts != res.Aborts {
					t.Errorf("ΣAbortsByCause = %d but Aborts = %d", aborts, res.Aborts)
				}
			})
		}
	}
}

// TestFaultHostFailover crashes the coordinator: in-flight transactions
// abort with the coordinator-crash cause, terminals hold during the
// failover window, and the system resumes afterwards.
func TestFaultHostFailover(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.ModelLogging = true
	cfg.Breakdown = true
	cfg.Faults = fault.Config{
		Enabled:    true,
		HostMTTFMs: 15_000,
		HostMTTRMs: 2_000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("no host crashes fired")
	}
	if res.Commits < 50 {
		t.Fatalf("only %d commits across the failovers", res.Commits)
	}
	if res.AbortsByCause["coordinator-crash"] == 0 {
		t.Error("host crashes aborted nothing attributed to coordinator-crash")
	}
	// The host is never down for messaging: availability counts processing
	// nodes only, and no processing node ever crashed.
	if res.Availability != 1 {
		t.Errorf("availability %v, want 1 (host failures are failover, not downtime)", res.Availability)
	}
}

// TestFaultMessageErrors turns on loss and duplication: lost messages are
// counted and retransmitted (the run still commits), duplicates add pure
// load without confusing any protocol state.
func TestFaultMessageErrors(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.ModelLogging = true
	cfg.Faults = fault.Config{
		Enabled:           true,
		DropProb:          0.02,
		DupProb:           0.02,
		RetransmitDelayMs: 50,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesLost == 0 {
		t.Fatal("2% loss over a full run lost nothing")
	}
	if res.Commits < 50 {
		t.Fatalf("only %d commits under message errors", res.Commits)
	}
	if res.Crashes != 0 {
		t.Errorf("message errors crashed %d nodes", res.Crashes)
	}
	if res.Availability != 1 {
		t.Errorf("availability %v under pure message errors, want 1", res.Availability)
	}
}

// TestFaultDisabledGoldenTraceBitIdentical pins the other half of the
// golden-safety contract: with Config.Faults at its zero value no fault
// state is built at all, and the golden Chrome trace — the strictest
// event-order witness the repo has — must stay byte-identical to the seed.
func TestFaultDisabledGoldenTraceBitIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace.json"))
	if err != nil {
		t.Fatalf("%v (regenerate via TestGoldenChromeTrace -update)", err)
	}
	cfg := tinyTraceConfig()
	cfg.Faults = fault.Config{}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	m.Run()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Events(), cfg.NumProcNodes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden Chrome trace diverged with the fault subsystem compiled in (%d bytes vs %d)", buf.Len(), len(want))
	}
}

// TestFaultTraceHasFaultSpans checks the observability side: a traced
// crashy run emits the crash instant, the down span, the recovery span and
// in-doubt windows under the fault track kind.
func TestFaultTraceHasFaultSpans(t *testing.T) {
	cfg := faultConfig(cc.TwoPL, commit.CentralizedTwoPC, 7)
	cfg.SimTimeMs = 40_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	m.Run()
	names := map[string]int{}
	for i := 0; i < tr.Len(); i++ {
		if ev := tr.Events().At(i); ev.Kind == obs.KindFault || ev.Name == "crash" {
			names[ev.Name]++
		}
	}
	for _, want := range []string{"crash", "down", "recovery", "in-doubt"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q fault event (got %v)", want, names)
		}
	}
}
