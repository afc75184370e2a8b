package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// settledGoroutines waits up to a second for the goroutine count to fall
// to want: a dismissed process has handed control back but may not have
// exited yet.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	s := New(1)
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		s.Schedule(at, func() { got = append(got, at) })
	}
	s.Run(100)
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v events, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(50, func() { got = append(got, i) })
	}
	s.Run(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestRunStopsAtEnd(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(100, func() { fired = true })
	end := s.Run(100)
	if fired {
		t.Error("event at end boundary should not fire (end is exclusive)")
	}
	if end != 100 {
		t.Errorf("Run returned %v, want 100", end)
	}
}

func TestNowAdvances(t *testing.T) {
	s := New(1)
	var at Time
	s.Schedule(42, func() { at = s.Now() })
	s.Run(100)
	if at != 42 {
		t.Errorf("Now inside event = %v, want 42", at)
	}
	if s.Now() != 100 {
		t.Errorf("final Now = %v, want 100", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(10, func() {})
	})
	s.Run(100)
}

func TestAfterClampsNegative(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(10, func() {
		s.After(-5, func() { fired = true })
	})
	s.Run(100)
	if !fired {
		t.Error("After with negative delay never fired")
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	n := 0
	s.Schedule(1, func() { n++ })
	s.Schedule(2, func() { n++ })
	if !s.Step(100) || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step(100) || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step(100) {
		t.Fatal("Step with empty queue returned true")
	}
}

func TestProcDelay(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var times []Time
	s.Spawn("p", func(p *Proc) {
		times = append(times, s.Now())
		p.Delay(10)
		times = append(times, s.Now())
		p.Delay(5)
		times = append(times, s.Now())
	})
	s.Run(100)
	want := []Time{0, 10, 15}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delay times %v, want %v", times, want)
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}

// TestProcSuspendResume: a process that waits with nothing scheduled (a
// lock or resource wait) continues at the instant another event resumes
// its continuation, picking up its own state.
func TestProcSuspendResume(t *testing.T) {
	s := New(1)
	var resumedAt Time
	var sleeper Cont
	steps := 0
	sleeper.Init(s, func() {
		steps++
		if steps == 2 {
			resumedAt = s.Now()
		}
	})
	sleeper.Resume() // start; the first step waits without scheduling
	s.Schedule(30, sleeper.Resume)
	s.Run(100)
	if resumedAt != 30 || steps != 2 {
		t.Errorf("resumed at %v after %d steps, want 30 after 2", resumedAt, steps)
	}
}

func TestProcsRunOneAtATime(t *testing.T) {
	// With run-to-block semantics two processes at the same instant must
	// interleave only at blocking points.
	s := New(1)
	var trace []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			trace = append(trace, name+"1")
			trace = append(trace, name+"2")
			p.Delay(1)
			trace = append(trace, name+"3")
		})
	}
	s.Run(100)
	want := []string{"a1", "a2", "b1", "b2", "a3", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestShutdownKillsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	cleanedUp := false
	s.Spawn("stuck", func(p *Proc) {
		defer func() {
			// Dismissal must still run the deferred functions of the
			// process body.
			cleanedUp = true
		}()
		p.Delay(100) // still blocked when the run ends
	})
	s.Run(10)
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
	if !cleanedUp {
		t.Error("deferred cleanup did not run on dismissal")
	}
}

func TestShutdownKillsDelayedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	s.Spawn("napper", func(p *Proc) {
		for {
			p.Delay(1)
		}
	})
	s.Run(50)
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}

// TestProcPanicPropagates: a panic in a process step surfaces in the Run
// caller.
func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate")
		}
	}()
	s := New(1)
	var k Cont
	k.Init(s, func() { panic("boom") })
	k.Resume()
	s.Run(10)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var out []float64
		for i := 0; i < 3; i++ {
			s.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Delay(Exponential(s.Rand(), 10))
					out = append(out, s.Now())
				}
			})
		}
		s.Run(1000)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventOrderProperty(t *testing.T) {
	// Property: however events are scheduled (random times, callbacks
	// mixed with continuations, some continuations canceled), the
	// surviving events fire in (time, insertion) order: Cont.Cancel's heap
	// removal leaves the rest of the queue in order.
	f := func(times []uint16, cancelMask uint64) bool {
		if len(times) > 64 {
			times = times[:64]
		}
		s := New(7)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		ks := make([]Cont, len(times))
		canceled := func(i int) bool { return i%2 == 0 && cancelMask&(1<<uint(i)) != 0 }
		for i, tt := range times {
			at := Time(tt % 1000)
			i := i
			fire := func() { fired = append(fired, rec{at: at, seq: i}) }
			if i%2 == 0 {
				ks[i].Init(s, fire)
				ks[i].Delay(at)
			} else {
				s.Schedule(at, fire)
			}
		}
		for i := range ks {
			if canceled(i) {
				ks[i].Cancel()
			}
		}
		s.Run(2000)
		// Check monotone non-decreasing time, FIFO within equal times.
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		}) {
			return false
		}
		// Check the right number of events fired.
		wantN := 0
		for i := range times {
			if !canceled(i) {
				wantN++
			}
		}
		return len(fired) == wantN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	n := 0
	for i := 0; i < 500; i++ {
		s.Spawn("worker", func(p *Proc) {
			p.Delay(Uniform(s.Rand(), 0, 50))
			n++
		})
	}
	s.Run(100)
	if n != 500 {
		t.Errorf("only %d of 500 processes completed", n)
	}
	if g := settledGoroutines(before); g > before {
		t.Errorf("%d goroutines after the run, %d before", g, before)
	}
}

func TestRandDeterministicBySeed(t *testing.T) {
	a := New(9).Rand().Float64()
	b := New(9).Rand().Float64()
	c := New(10).Rand().Float64()
	if a != b {
		t.Error("same seed produced different values")
	}
	if a == c {
		t.Error("different seeds produced identical first values")
	}
}

func TestExponentialMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += Exponential(r, 25)
	}
	mean := sum / n
	if mean < 24 || mean > 26 {
		t.Errorf("exponential mean %v, want ~25", mean)
	}
}

func TestExponentialNonPositiveMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if Exponential(r, 0) != 0 || Exponential(r, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestUniformBounds(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		v := Uniform(r, 10, 30)
		if v < 10 || v > 30 {
			t.Fatalf("uniform %v outside [10,30]", v)
		}
	}
	if Uniform(r, 5, 5) != 5 {
		t.Error("degenerate uniform should return lo")
	}
	if Uniform(r, 7, 3) != 7 {
		t.Error("inverted uniform should return lo")
	}
}

func TestUniformIntBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := UniformInt(r, 4, 12)
		if v < 4 || v > 12 {
			t.Fatalf("uniform int %v outside [4,12]", v)
		}
		seen[v] = true
	}
	for v := 4; v <= 12; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
	if UniformInt(r, 8, 8) != 8 || UniformInt(r, 9, 2) != 9 {
		t.Error("degenerate uniform int should return lo")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func(n8, k8 uint8) bool {
		n := int(n8%50) + 1
		k := int(k8 % 60)
		s := SampleWithoutReplacementInto(r, n, k, nil)
		want := k
		if want > n {
			want = n
		}
		if len(s) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntoMatchesPermStream(t *testing.T) {
	// SampleWithoutReplacementInto must consume the RNG exactly like
	// rand.Perm: same sample, same number of draws, same state afterwards.
	// This is what lets the workload generator reuse a scratch buffer
	// without perturbing seeded runs.
	for seed := int64(1); seed <= 5; seed++ {
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		scratch := make([]int, 0, 64)
		for _, nk := range [][2]int{{300, 8}, {1, 1}, {0, 0}, {7, 12}, {50, 50}} {
			n, k := nk[0], nk[1]
			want := a.Perm(n)
			if k > n {
				k = n
			}
			want = want[:k]
			got := SampleWithoutReplacementInto(b, n, k, scratch)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: len %d, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: sample %v, want %v", n, k, got, want)
				}
			}
			scratch = got[:0]
		}
		if a.Float64() != b.Float64() {
			t.Fatalf("seed %d: RNG states diverged after sampling", seed)
		}
	}
}

func TestSampleIntoAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	scratch := make([]int, 300)
	allocs := testing.AllocsPerRun(100, func() {
		s := SampleWithoutReplacementInto(r, 300, 8, scratch)
		scratch = s[:0]
	})
	if allocs != 0 {
		t.Errorf("SampleWithoutReplacementInto with adequate scratch allocates %v objects, want 0", allocs)
	}
}

// TestContInterleavesWithCallbacks: a continuation's resume event is an
// ordinary event — at one instant it fires in (time, seq) order among the
// callback events, wherever its scheduling call fell in the call
// sequence.
func TestContInterleavesWithCallbacks(t *testing.T) {
	s := New(1)
	var got []string
	var k Cont
	k.Init(s, func() { got = append(got, "k") })
	k.Delay(10) // due at 10, scheduled before both callbacks
	s.Schedule(10, func() { got = append(got, "c") })
	s.Schedule(10, func() {
		s.After(0, func() { got = append(got, "a") })
		k.Resume()
		s.After(0, func() { got = append(got, "b") })
	})
	s.Run(100)
	want := []string{"k", "c", "a", "k", "b"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestContDoubleSchedulePanics: a process waits in one place at a time,
// so scheduling its continuation while a resumption is pending is a
// kernel-usage bug.
func TestContDoubleSchedulePanics(t *testing.T) {
	s := New(1)
	var k Cont
	k.Init(s, func() {})
	k.Delay(5)
	if !k.Pending() {
		t.Fatal("scheduled continuation not pending")
	}
	defer func() {
		if recover() == nil {
			t.Error("second schedule of a pending continuation did not panic")
		}
	}()
	k.Resume()
}

// TestContCancelSuppressesStep: canceling a pending continuation (the
// crash-stop of a process) keeps its step from running, and the handle
// can be scheduled again afterwards.
func TestContCancelSuppressesStep(t *testing.T) {
	s := New(1)
	var k Cont
	var ran []Time
	k.Init(s, func() { ran = append(ran, s.Now()) })
	k.Delay(5)
	s.Schedule(2, k.Cancel)
	for s.Step(10) {
	}
	if len(ran) != 0 || k.Pending() {
		t.Fatalf("canceled step ran at %v (pending %v)", ran, k.Pending())
	}
	if s.EventsDispatched() != 1 {
		t.Errorf("%d events dispatched, want 1 (the cancel)", s.EventsDispatched())
	}
	k.Cancel() // nothing pending: a no-op
	k.Delay(3)
	for s.Step(10) {
	}
	if len(ran) != 1 || ran[0] != 5 {
		t.Errorf("rescheduled step ran at %v, want [5]", ran)
	}
}

// TestRunEndsProcesses: a process still waiting when Run returns ends
// with the run, as a goroutine process is dismissed, so nothing it holds
// outlives the run; callback events stay queued.
func TestRunEndsProcesses(t *testing.T) {
	s := New(1)
	var k Cont
	ran := false
	k.Init(s, func() { ran = true })
	k.Delay(50)
	fired := false
	s.Schedule(60, func() { fired = true })
	s.Run(10)
	if k.Pending() {
		t.Fatal("continuation still pending after Run")
	}
	s.Run(100)
	if ran {
		t.Error("a process ended by Run resumed in a later Run")
	}
	if !fired {
		t.Error("a callback event queued across Runs never fired")
	}
}

// TestContDelayClampsNegative: a continuation delay clamps at zero, so a
// resumption can never be scheduled in the past.
func TestContDelayClampsNegative(t *testing.T) {
	s := New(1)
	var at Time = -1
	var k Cont
	k.Init(s, func() { at = s.Now() })
	s.Schedule(7, func() { k.Delay(-3) })
	s.Run(math.Inf(1))
	if at != 7 {
		t.Errorf("negative delay resumed at %v, want 7", at)
	}
}
