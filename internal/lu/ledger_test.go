package lu

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// ledgerHash is the FNV-64a hash of everything the executor counted in
// its most recent Run: the per-level traffic, every core's MD share,
// the inter-chip pair matrix, the chip count and the phase plan's
// overlap counts.
func ledgerHash(ex *parallel.Executor, cores int) string {
	h := fnv.New64a()
	tr := ex.Traffic()
	fmt.Fprintf(h, "MS %+v\nMD %+v\nIC %+v\n", tr.MS, tr.MD, tr.IC)
	for c := 0; c < cores; c++ {
		fmt.Fprintf(h, "core %d %+v\n", c, ex.CoreTraffic(c))
	}
	fmt.Fprintf(h, "pairs %+v\nchips %d\n", ex.InterChipPairs(), ex.Chips())
	if p := ex.Plan(); p == nil {
		fmt.Fprint(h, "plan nil\n")
	} else {
		fmt.Fprintf(h, "plan %d %d %d\n", p.Hoisted, p.Retired, p.Barriered)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestLUExecutorLedgerPinned is the LU half of parallel's
// TestExecutorLedgerPinned: the traffic ledger of a ragged
// factorisation (n=23, q=5) in every staging mode, at one and two chips
// for the shared-level modes, optimizer off and on, from two
// consecutive Runs on one executor with the input restored between
// them.
func TestLUExecutorLedgerPinned(t *testing.T) {
	const n, q = 23, 5
	orig := RandomDominant(n, 7)
	var got []string
	for _, mode := range []parallel.Mode{parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined} {
		for _, chips := range []int{1, 2} {
			if chips > 1 && !mode.SharedLevel() {
				continue
			}
			mach := luChipMachine(4, chips, q)
			prog := program(t, mach, n, q)
			for _, optimize := range []bool{false, true} {
				a := orig.Clone()
				blocked, err := matrix.NewBlocked(matrix.MatA, a, q)
				if err != nil {
					t.Fatal(err)
				}
				operands, err := matrix.NewOperands(blocked)
				if err != nil {
					t.Fatal(err)
				}
				team, err := parallel.NewTeam(mach.P)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := parallel.NewExecutorOperands(team, operands, nil, mode, mach.CD, mach.CS)
				if err != nil {
					t.Fatal(err)
				}
				ex.SetTuning(parallel.Tuning{Optimize: optimize})
				var hashes []string
				for run := 0; run < 2; run++ {
					if err := a.CopyFrom(orig); err != nil {
						t.Fatal(err)
					}
					if err := ex.Run(prog); err != nil {
						t.Fatalf("%v chips=%d optimize=%v run %d: %v", mode, chips, optimize, run, err)
					}
					hashes = append(hashes, ledgerHash(ex, mach.P))
				}
				team.Close()
				got = append(got, fmt.Sprintf("%v/chips%d/opt=%v: %s", mode, chips, optimize, strings.Join(hashes, " ")))
			}
		}
	}

	if len(got) != len(pinnedLULedgers) {
		t.Fatalf("%d ledgers, %d pinned:\n%s", len(got), len(pinnedLULedgers), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinnedLULedgers[i] {
			t.Errorf("ledger %d:\n got  %s\n want %s", i, got[i], pinnedLULedgers[i])
		}
	}
}

// pinnedLULedgers holds each case's two ledger hashes, in the order the
// test runs the cases.
var pinnedLULedgers = []string{
	"packed/chips1/opt=false: 52a133f9d30f450f 52a133f9d30f450f",
	"packed/chips1/opt=true: e995ba7d821892b3 e995ba7d821892b3",
	"shared/chips1/opt=false: 7aa8642df8de44fd 7aa8642df8de44fd",
	"shared/chips1/opt=true: eda46c1e3fb626f1 eda46c1e3fb626f1",
	"shared/chips2/opt=false: 974d61f16c4db34e 974d61f16c4db34e",
	"shared/chips2/opt=true: 9530644dfda21ca4 9530644dfda21ca4",
	"shared-pipelined/chips1/opt=false: 1d5f923499b0c6f6 1d5f923499b0c6f6",
	"shared-pipelined/chips1/opt=true: 3227b9dd3409bb44 3227b9dd3409bb44",
	"shared-pipelined/chips2/opt=false: 1f8f1d410cc054e7 1f8f1d410cc054e7",
	"shared-pipelined/chips2/opt=true: 3ba1e6399238cf49 3ba1e6399238cf49",
}
