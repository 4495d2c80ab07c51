package parallel

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

// SetStrictVerify toggles the static pre-flight gate: when on, Run
// hands every program to the schedule verifier before replaying a
// single operation and refuses any program with findings. The
// registered emitters are already verified on the full grid in CI, so
// the gate defaults to off; it exists for hand-built or generated
// programs from untrusted emitters, where "prove it before anything
// runs" has to happen at the call site. Verification is part of Run's
// per-program compilation, so benchmark loops re-running one program
// pay for it once; toggling the gate drops the compiled program.
func (ex *Executor) SetStrictVerify(on bool) {
	ex.strictVerify = on
	ex.comp = nil
}

// strictVerifyCheck runs the verifier when the gate is on. Findings
// are reported through one error naming the first op-level violation —
// the full list comes from verify.Program or cmd/schedlint, which the
// error points at.
func (ex *Executor) strictVerifyCheck(prog *schedule.Program) error {
	if !ex.strictVerify {
		return nil
	}
	if fs := verify.Program(prog, prog.Resources); len(fs) > 0 {
		return fmt.Errorf("parallel: strict verify rejected %q: %d findings, first: %v",
			prog.Algorithm, len(fs), fs[0])
	}
	return nil
}
