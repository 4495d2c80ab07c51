package repro

import "testing"

func TestFacadeSimulation(t *testing.T) {
	sim, err := NewSimulator(QuadCore(32, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunByName("Tradeoff", Square(24), SettingLRU50)
	if err != nil {
		t.Fatal(err)
	}
	if res.MS == 0 || res.MD == 0 || res.Tdata == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	b := Bounds(sim.Machine(), Square(24))
	if float64(res.MS) < b.MS {
		t.Fatal("simulated MS beats the lower bound")
	}
}

func TestFacadeConfigsAndAlgorithms(t *testing.T) {
	if got := len(PaperConfigs()); got != 3 {
		t.Fatalf("PaperConfigs: %d, want 3", got)
	}
	if got := len(Algorithms()); got != 6 {
		t.Fatalf("Algorithms: %d, want 6", got)
	}
	if _, err := AlgorithmByName("Shared Opt."); err != nil {
		t.Fatal(err)
	}
	if _, err := AlgorithmByName("bogus"); err == nil {
		t.Fatal("unknown name must fail")
	}
}

func TestFacadeQuadCorePanicsOnUnknownQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q=33")
		}
	}()
	QuadCore(33, false)
}

func TestFacadeRealExecution(t *testing.T) {
	tr, err := NewTriple(6, 6, 6, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	mach := QuadCore(32, false)
	mach.Q = 8
	if err := Multiply("Distributed Opt.", tr, mach, ExecPacked, Tuning{}); err != nil {
		t.Fatal(err)
	}
	diff, err := Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-10 {
		t.Fatalf("real execution deviates by %g", diff)
	}
}
