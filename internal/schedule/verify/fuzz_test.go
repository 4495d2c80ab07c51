package verify_test

import (
	"testing"

	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

// FuzzVerifyNeverPanics is the verifier's robustness gate: arbitrary op
// streams, decoded through verify.FuzzProgram, must verify and render
// as findings — never fault. For streams clean enough to plan, the
// planner's output must additionally re-verify through the plan checker
// without faulting.
func FuzzVerifyNeverPanics(f *testing.F) {
	// Seeds cover each opcode family and the malformed shapes the
	// negative corpus pins: clean round trip, double stage, leak,
	// foreign unstage, arity junk, over capacity.
	f.Add(uint8(0), uint8(0), uint8(4), uint8(3), []byte{})
	f.Add(uint8(1), uint8(0), uint8(4), uint8(3), []byte{0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 0, 0})
	f.Add(uint8(1), uint8(0), uint8(4), uint8(3), []byte{0, 1, 1, 0, 1, 1, 1, 1, 1})
	f.Add(uint8(3), uint8(1), uint8(2), uint8(1), []byte{0, 2, 3, 2, 2, 3, 4, 5, 2, 6, 7, 1, 1, 2, 3})
	f.Add(uint8(2), uint8(1), uint8(8), uint8(4), []byte{4, 6, 3, 5, 1, 0, 7, 2, 2})
	f.Add(uint8(0), uint8(1), uint8(1), uint8(1), []byte{0, 0, 0, 0, 3, 1, 0, 6, 2, 2, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, cores, chips, cs, cd uint8, data []byte) {
		p, res := verify.FuzzProgram(cores, chips, cs, cd, data)
		fs := verify.Program(p, res)
		for _, fd := range fs {
			if fd.String() == "" {
				t.Fatal("empty finding rendering")
			}
		}
		sharedCap := res.SharedBlocks
		if sharedCap <= 0 {
			sharedCap = 1
		}
		plan, err := schedule.PlanPipelineDepth(p, sharedCap, 1+int(cores)%3)
		if err != nil {
			return
		}
		for _, fd := range verify.Plan(p, plan, sharedCap) {
			if fd.String() == "" {
				t.Fatal("empty plan finding rendering")
			}
		}
	})
}
