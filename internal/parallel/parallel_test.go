package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/machine"
	"repro/internal/matrix"
)

func testMachine(p int) machine.Machine {
	return machine.Machine{P: p, CS: 157, CD: 7, SigmaS: 1, SigmaD: 4, Q: 8}
}

func TestTeamRunsAllWorkers(t *testing.T) {
	team, err := NewTeam(4)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	var hits [4]int32
	if err := team.Run(func(c int) error {
		atomic.AddInt32(&hits[c], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for c, h := range hits {
		if h != 1 {
			t.Fatalf("core %d ran %d times", c, h)
		}
	}
	if team.Size() != 4 {
		t.Fatalf("Size = %d", team.Size())
	}
}

func TestTeamPropagatesErrors(t *testing.T) {
	team, _ := NewTeam(3)
	defer team.Close()
	sentinel := matrix.ErrShape
	err := team.Run(func(c int) error {
		if c == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("got %v, want sentinel error", err)
	}
	// Team stays usable after an error.
	if err := team.Run(func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestTeamRejectsZeroWorkers(t *testing.T) {
	if _, err := NewTeam(0); err == nil {
		t.Fatal("expected error for p=0")
	}
}

func TestTeamCloseIdempotent(t *testing.T) {
	team, _ := NewTeam(2)
	team.Close()
	team.Close() // must not panic
}

// A team parks at most one value: Keep replaces it, Take removes it,
// and Close drops it, after which the team keeps nothing.
func TestTeamKeepsOneValue(t *testing.T) {
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	if v := team.Take(); v != nil {
		t.Fatalf("a new team holds %v", v)
	}
	team.Keep(1)
	team.Keep(2)
	if v := team.Take(); v != 2 {
		t.Fatalf("Take = %v, want the last value kept, 2", v)
	}
	if v := team.Take(); v != nil {
		t.Fatalf("a second Take = %v, want nil", v)
	}
	team.Keep(3)
	team.Close()
	if v := team.Take(); v != nil {
		t.Fatalf("Close left %v on the team", v)
	}
	team.Keep(4)
	if v := team.Take(); v != nil {
		t.Fatalf("a closed team kept %v", v)
	}
}

// algorithms returns every registered display name: the real executor
// must be able to run the whole extended set, so the registry itself is
// the test fixture (no second hand-maintained name list).
func algorithms() []string {
	return algo.Names()
}

// TestRegistryCoversRealExecutor guards against dispatch drift: every
// algorithm the registry can name — including comparators outside
// algo.All(), like "Cache Oblivious" — must be runnable by the real
// executor, and must fail at resolution time (not deep inside a run)
// for unknown names.
func TestRegistryCoversRealExecutor(t *testing.T) {
	if len(algo.Extended()) < 7 {
		t.Fatalf("extended registry has %d algorithms, want ≥ 7", len(algo.Extended()))
	}
	mach := testMachine(4)
	for _, a := range algo.Extended() {
		tr, err := matrix.NewTriple(5, 4, 3, mach.Q, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := Multiply(a.Name(), tr, mach, ModePacked, DefaultTuning, nil); err != nil {
			t.Fatalf("%s: not runnable by the real executor: %v", a.Name(), err)
		}
		diff, err := Verify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-10 {
			t.Fatalf("%s: result deviates by %g", a.Name(), diff)
		}
	}
}

func TestMultiplyMatchesReference(t *testing.T) {
	mach := testMachine(4)
	shapes := [][3]int{
		{4, 4, 4},   // tiny square
		{12, 12, 6}, // divisible by λ_eff=12 and super-tiles
		{13, 7, 5},  // ragged everywhere
		{1, 9, 2},   // single block row
		{24, 24, 8}, // several tiles
	}
	for _, name := range algorithms() {
		for _, s := range shapes {
			tr, err := matrix.NewTriple(s[0], s[1], s[2], mach.Q, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := Multiply(name, tr, mach, ModePacked, DefaultTuning, nil); err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			diff, err := Verify(tr)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-10 {
				t.Fatalf("%s %v: result deviates by %g", name, s, diff)
			}
		}
	}
}

func TestMultiplyUnknownAlgorithm(t *testing.T) {
	tr, _ := matrix.NewTriple(2, 2, 2, 4, 1)
	if err := Multiply("nope", tr, testMachine(2), ModePacked, DefaultTuning, nil); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestMultiplyValidatesInputs(t *testing.T) {
	tr, _ := matrix.NewTriple(2, 2, 2, 4, 1)
	bad := testMachine(4)
	bad.CD = 1 // invalid machine
	if err := Multiply("Shared Opt.", tr, bad, ModePacked, DefaultTuning, nil); err == nil {
		t.Fatal("invalid machine must be rejected")
	}
}

func TestMultiplyVariousCoreCounts(t *testing.T) {
	// Core counts that stress the grid logic: 1 (degenerate), 2 (1×2),
	// 4 (2×2), 6 (2×3), 9 (3×3).
	for _, p := range []int{1, 2, 4, 6, 9} {
		mach := testMachine(p)
		mach.CS = 64 * p // keep inclusion CS ≥ p·CD valid
		tr, err := matrix.NewTriple(10, 8, 6, 4, uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range algorithms() {
			tr.C.Dense().Zero()
			if err := Multiply(name, tr, mach, ModePacked, DefaultTuning, nil); err != nil {
				t.Fatalf("p=%d %s: %v", p, name, err)
			}
			diff, err := Verify(tr)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-10 {
				t.Fatalf("p=%d %s: deviates by %g", p, name, diff)
			}
		}
	}
}

// Property: for random shapes and seeds, the parallel tradeoff executor
// agrees with the sequential reference.
func TestMultiplyProperty(t *testing.T) {
	mach := testMachine(4)
	f := func(mRaw, nRaw, zRaw uint8, seed uint64) bool {
		m := int(mRaw%10) + 1
		n := int(nRaw%10) + 1
		z := int(zRaw%10) + 1
		tr, err := matrix.NewTriple(m, n, z, 4, seed)
		if err != nil {
			return false
		}
		if err := Multiply("Tradeoff", tr, mach, ModePacked, DefaultTuning, nil); err != nil {
			return false
		}
		diff, err := Verify(tr)
		return err == nil && diff < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Accumulation semantics: running twice doubles the result (C += AB).
func TestMultiplyAccumulates(t *testing.T) {
	mach := testMachine(4)
	tr, _ := matrix.NewTriple(6, 6, 6, 4, 7)
	if err := Multiply("Distributed Opt.", tr, mach, ModePacked, DefaultTuning, nil); err != nil {
		t.Fatal(err)
	}
	once := tr.C.Dense().Clone()
	if err := Multiply("Distributed Opt.", tr, mach, ModePacked, DefaultTuning, nil); err != nil {
		t.Fatal(err)
	}
	twice := once.Clone()
	twice.Scale(2)
	if !tr.C.Dense().EqualTol(twice, 1e-9) {
		t.Fatal("second Multiply did not accumulate")
	}
}

// BenchmarkExecutor measures every registered algorithm under all four
// executor modes, so `go test -bench Executor` prints the view vs
// packed vs shared vs shared-pipelined comparison the benchmark
// pipeline records at full scale in BENCH_gemm.json
// (cmd/gemm -bench-json). The workload is 16×16 blocks of 32×32
// (n=512) to stay benchmark-sized; GFLOP/s is reported as a custom
// metric.
func BenchmarkExecutor(b *testing.B) {
	mach := machine.Machine{P: 4, CS: 977, CD: 21, SigmaS: 1, SigmaD: 4, Q: 32}
	const order = 16
	flops := 2 * float64(order*mach.Q) * float64(order*mach.Q) * float64(order*mach.Q)
	for _, name := range algorithms() {
		for _, mode := range []Mode{ModeView, ModePacked, ModeShared, ModeSharedPipelined} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				tr, err := matrix.NewTriple(order, order, order, mach.Q, 1)
				if err != nil {
					b.Fatal(err)
				}
				// Prepare once, run many: team, executor and program
				// live across iterations, so per-iteration work is the
				// executed schedule itself (validation is cached by
				// program pointer after the first Run).
				a, err := algo.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := a.Schedule(mach, algo.Workload{M: order, N: order, Z: order})
				if err != nil {
					b.Fatal(err)
				}
				team, err := NewTeam(mach.P)
				if err != nil {
					b.Fatal(err)
				}
				defer team.Close()
				ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ex.Run(prog); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(flops*float64(b.N)/s/1e9, "GFLOP/s")
				}
			})
		}
	}
}

func BenchmarkParallelTradeoff(b *testing.B) {
	mach := machine.Machine{P: 4, CS: 977, CD: 21, SigmaS: 1, SigmaD: 4, Q: 32}
	tr, err := matrix.NewTriple(16, 16, 16, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Multiply("Tradeoff", tr, mach, ModePacked, DefaultTuning, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialBlocked(b *testing.B) {
	tr, err := matrix.NewTriple(16, 16, 16, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	out := matrix.New(tr.C.Dense().Rows(), tr.C.Dense().Cols())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := matrix.MulBlocked(out, tr.A.Dense(), tr.B.Dense(), 32); err != nil {
			b.Fatal(err)
		}
	}
}
