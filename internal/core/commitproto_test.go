package core

import (
	"fmt"
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/commit"
)

// pinConfig is an uncontested single-terminal machine where per-commit
// message and log-force counts are exact (modulo the transaction in flight
// at the cutoff).
func pinConfig(proto commit.Kind, ways int, writeProb float64) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = cc.NoDC
	cfg.CommitProtocol = proto
	cfg.PartitionWays = ways
	cfg.NumTerminals = 1
	cfg.ThinkTimeMs = 100
	cfg.WriteProb = writeProb
	cfg.ModelLogging = true
	cfg.SimTimeMs = 120_000
	cfg.WarmupMs = 0
	return cfg
}

// checkPerCommit applies the in-flight-transaction tolerance: the attempt
// running at the cutoff contributes up to one transaction's worth of
// partial counts.
func checkPerCommit(t *testing.T, label string, total, commits int64, want float64) {
	t.Helper()
	per := float64(total) / float64(commits)
	if per < want || per > want+(want+1)/float64(commits)+0.5 {
		t.Errorf("%s: %.3f per commit, want %v", label, per, want)
	}
}

// TestCommitProtocolCostPins pins the exact per-commit message and
// forced-log-write complexity of each commit protocol at the machine level
// (N cohorts, no contention, logging modeled).
//
// Update transactions (every cohort writes):
//
//	messages  2PC 6N, PA 6N, PC 5N (no commit acks)
//	forces    2PC/PA N+1 (N prepares + decision), PC N+2 (collecting record)
//
// Read-only transactions (presumed variants vote READ, skip phase two):
//
//	messages  2PC 6N, PA/PC 4N
//	forces    2PC N+1, PA 0, PC 1 (collecting record only)
func TestCommitProtocolCostPins(t *testing.T) {
	type pins struct{ msgs, forces func(n float64) float64 }
	cases := []struct {
		proto     commit.Kind
		writeProb float64
		pins      pins
	}{
		{commit.CentralizedTwoPC, 1, pins{func(n float64) float64 { return 6 * n }, func(n float64) float64 { return n + 1 }}},
		{commit.PresumedAbort, 1, pins{func(n float64) float64 { return 6 * n }, func(n float64) float64 { return n + 1 }}},
		{commit.PresumedCommit, 1, pins{func(n float64) float64 { return 5 * n }, func(n float64) float64 { return n + 2 }}},
		{commit.CentralizedTwoPC, 0, pins{func(n float64) float64 { return 6 * n }, func(n float64) float64 { return n + 1 }}},
		{commit.PresumedAbort, 0, pins{func(n float64) float64 { return 4 * n }, func(n float64) float64 { return 0 }}},
		{commit.PresumedCommit, 0, pins{func(n float64) float64 { return 4 * n }, func(n float64) float64 { return 1 }}},
	}
	for _, tc := range cases {
		for _, ways := range []int{2, 4} {
			label := fmt.Sprintf("%v writeProb=%g ways=%d", tc.proto, tc.writeProb, ways)
			res, err := Run(pinConfig(tc.proto, ways, tc.writeProb))
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits < 20 {
				t.Fatalf("%s: only %d commits", label, res.Commits)
			}
			if res.Aborts != 0 {
				t.Fatalf("%s: %d aborts in an uncontested run", label, res.Aborts)
			}
			n := float64(ways)
			checkPerCommit(t, label+" messages", res.MessagesSent, res.Commits, tc.pins.msgs(n))
			checkPerCommit(t, label+" forces", res.LogForces, res.Commits, tc.pins.forces(n))
			if res.AbortPathLogForces != 0 {
				t.Errorf("%s: %d abort-path forces without aborts", label, res.AbortPathLogForces)
			}
		}
	}
}

// TestCommitProtocolDecisionsUncontended is the cross-protocol property
// test: the commit protocol changes message and logging costs, never
// decisions. Under contention the protocols' different timings change which
// conflicts arise, so identity is asserted where it is well-defined — a
// single terminal (no concurrency at all): every protocol must produce the
// identical stream of (txn, attempt, outcome) decisions, all commits.
func TestCommitProtocolDecisionsUncontended(t *testing.T) {
	for _, alg := range []cc.Kind{cc.TwoPL, cc.WoundWait, cc.BTO, cc.OPT, cc.O2PL} {
		var streams [][]string
		for _, proto := range commit.Kinds() {
			cfg := DefaultConfig()
			cfg.Algorithm = alg
			cfg.CommitProtocol = proto
			cfg.PartitionWays = 4
			cfg.NumTerminals = 1
			cfg.ThinkTimeMs = 100
			cfg.SimTimeMs = 60_000
			cfg.WarmupMs = 0
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := m.EnableTracing()
			m.Run()
			var stream []string
			for _, e := range lifecycleEvents(tr) {
				if e.Name == "decided" {
					stream = append(stream, fmt.Sprintf("%d/%d %s", e.Txn, e.Attempt, e.Detail))
				}
			}
			if len(stream) < 50 {
				t.Fatalf("%v/%v: only %d decisions", alg, proto, len(stream))
			}
			for _, d := range stream {
				if d[len(d)-len("commit"):] != "commit" {
					t.Fatalf("%v/%v: uncontended decision aborted: %s", alg, proto, d)
				}
			}
			streams = append(streams, stream)
		}
		// Runs end at the same simulated cutoff but the protocols spend
		// different time per commit, so only the common prefix is comparable.
		min := len(streams[0])
		for _, s := range streams[1:] {
			if len(s) < min {
				min = len(s)
			}
		}
		for i, s := range streams[1:] {
			for j := 0; j < min; j++ {
				if s[j] != streams[0][j] {
					t.Fatalf("%v: %v decision %d is %q, %v got %q",
						alg, commit.Kinds()[0], j, streams[0][j], commit.Kinds()[i+1], s[j])
				}
			}
		}
	}
}

// TestPresumedVariantsSerializable runs the presumed variants under real
// contention with the serializability auditor on: the cheaper protocols must
// not buy their savings with anomalies, and their abort-path logging must
// match the design (presumed abort never forces on abort, presumed commit
// must force every cohort abort record).
func TestPresumedVariantsSerializable(t *testing.T) {
	for _, alg := range []cc.Kind{cc.TwoPL, cc.WoundWait, cc.O2PL} {
		for _, proto := range []commit.Kind{commit.PresumedAbort, commit.PresumedCommit} {
			t.Run(fmt.Sprintf("%v-%v", alg, proto), func(t *testing.T) {
				cfg := testConfig(alg)
				cfg.CommitProtocol = proto
				cfg.PagesPerFile = 40
				cfg.ThinkTimeMs = 0
				cfg.Audit = true
				cfg.ModelLogging = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Commits < 50 {
					t.Fatalf("only %d commits", res.Commits)
				}
				if res.Aborts == 0 {
					t.Fatal("no aborts: contention not exercised")
				}
				if len(res.AuditViolations) != 0 {
					t.Fatalf("anomalies: %s", res.AuditViolations[0])
				}
				switch proto {
				case commit.PresumedAbort:
					if res.AbortPathLogForces != 0 {
						t.Errorf("presumed abort forced %d abort records", res.AbortPathLogForces)
					}
				case commit.PresumedCommit:
					if res.AbortPathLogForces == 0 {
						t.Error("presumed commit aborted without forcing abort records")
					}
				}
			})
		}
	}
}

// TestCentralizedNeverForcesAbortRecords pins the baseline's abort path:
// centralized 2PC acknowledges aborts but forces nothing for them.
func TestCentralizedNeverForcesAbortRecords(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.PagesPerFile = 40
	cfg.ThinkTimeMs = 0
	cfg.ModelLogging = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Fatal("no aborts: contention not exercised")
	}
	if res.AbortPathLogForces != 0 {
		t.Errorf("centralized 2PC forced %d abort records", res.AbortPathLogForces)
	}
}

// TestPreparedDecidedEvents checks the new life-cycle events: every commit
// emits prepared then decided(commit) then committed, in that order, with
// matching attempt numbers.
func TestPreparedDecidedEvents(t *testing.T) {
	cfg := pinConfig(commit.CentralizedTwoPC, 4, 0.25)
	cfg.SimTimeMs = 20_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	m.Run()
	type state struct{ prepared, decided bool }
	open := map[int64]*state{}
	committed := 0
	for _, e := range lifecycleEvents(tr) {
		switch e.Name {
		case "attempt":
			open[e.Txn] = &state{}
		case "prepared":
			open[e.Txn].prepared = true
		case "decided":
			st := open[e.Txn]
			if e.Detail == "commit" && !st.prepared {
				t.Errorf("txn %d decided commit without preparing", e.Txn)
			}
			st.decided = true
		case "committed":
			st := open[e.Txn]
			if !st.prepared || !st.decided {
				t.Errorf("txn %d committed without prepared+decided", e.Txn)
			}
			committed++
		}
	}
	if committed < 20 {
		t.Fatalf("only %d commits observed", committed)
	}
}

// TestLoggingOffNoForcesMachineLevel confirms no protocol counts log forces
// when logging is not modeled.
func TestLoggingOffNoForcesMachineLevel(t *testing.T) {
	for _, proto := range commit.Kinds() {
		cfg := pinConfig(proto, 2, 0.25)
		cfg.ModelLogging = false
		cfg.SimTimeMs = 20_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.LogForces != 0 || res.AbortPathLogForces != 0 {
			t.Errorf("%v: %d forces (%d abort-path) with logging off", proto, res.LogForces, res.AbortPathLogForces)
		}
	}
}
