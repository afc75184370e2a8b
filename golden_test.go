package ddbm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"ddbm"
)

// TestKernelGoldenBitIdentical replays the configurations captured in
// testdata/golden_seed_kernel.json — results produced by the original
// container/heap kernel with per-resume closure allocation — and requires
// the current kernel to reproduce every Result field bit-for-bit. This is
// the contract of the allocation-free kernel rewrite: same (time, seq)
// dispatch order, same RNG consumption order, therefore the same floats to
// the last ulp. Regenerate the file (see DESIGN.md, "Kernel performance")
// only for a deliberate, documented model change.
func TestKernelGoldenBitIdentical(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_seed_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []ddbm.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("golden file is empty")
	}
	for i := range golden {
		g := golden[i]
		name := fmt.Sprintf("%d-%v-%s", i, g.Config.Algorithm, g.Config.ExecPattern)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := ddbm.Run(g.Config)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, g) {
				got, _ := json.MarshalIndent(res, "", "  ")
				want, _ := json.MarshalIndent(g, "", "  ")
				t.Errorf("result diverged from the seed kernel\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestGoldenEventCounts pins how many events each golden configuration
// dispatches, plus the Table 4 machine at a 4-s think time, seed 7, over
// 240 simulated seconds (the benchmark's baseline workload). Every
// process resumption is one event at the same point in the call sequence
// as when processes were goroutines, so a change that adds or drops a
// hop — or starts a process differently — changes a count even where the
// Results happen to survive it.
func TestGoldenEventCounts(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_seed_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []ddbm.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want := []uint64{263_789, 269_183, 269_847, 269_518, 261_160, 271_179, 185_575, 242_933, 269_518}
	if len(golden) != len(want) {
		t.Fatalf("%d golden configurations, %d pinned counts", len(golden), len(want))
	}
	type run struct {
		name   string
		cfg    ddbm.Config
		events uint64
	}
	var runs []run
	for i, g := range golden {
		runs = append(runs, run{fmt.Sprintf("%d-%v-%s", i, g.Config.Algorithm, g.Config.ExecPattern), g.Config, want[i]})
	}
	table4 := ddbm.DefaultConfig()
	table4.ThinkTimeMs = 4000
	table4.Seed = 7
	table4.SimTimeMs, table4.WarmupMs = 240_000, 30_000
	runs = append(runs, run{"table4-seed7", table4, 1_048_771})
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			m, err := ddbm.NewMachine(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			if got := m.Sim().EventsDispatched(); got != r.events {
				t.Errorf("%d events dispatched, want %d", got, r.events)
			}
		})
	}
}

// TestRunTwiceIdentical runs every algorithm twice with the same seed and
// asserts the full Result structs are identical — determinism of the
// current kernel against itself, independent of the golden file.
func TestRunTwiceIdentical(t *testing.T) {
	algos := append(ddbm.Algorithms(), ddbm.O2PL)
	for _, a := range algos {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			cfg := ddbm.DefaultConfig()
			cfg.Algorithm = a
			cfg.SimTimeMs = 30_000
			cfg.WarmupMs = 5_000
			cfg.ThinkTimeMs = 2_000
			cfg.Seed = 11
			first, err := ddbm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := ddbm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				got, _ := json.MarshalIndent(second, "", "  ")
				want, _ := json.MarshalIndent(first, "", "  ")
				t.Errorf("two runs with one seed diverged\nsecond:\n%s\nfirst:\n%s", got, want)
			}
		})
	}
}
