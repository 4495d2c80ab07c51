package schedule

import "fmt"

// OpRef pins one executed operation of a program for error provenance:
// which parallel region it ran in, which core issued it, and its
// per-core operation index within the run. It is the dynamic counterpart
// of the verifier's Finding coordinates (internal/schedule/verify): the
// static checker numbers ops in emission order, while an OpRef numbers
// them in each core's execution order — the granularity fault-injection
// plans (internal/faultinject) and the executor's RunError both speak.
//
// Conventions: Core -1 is the driving goroutine (shared-level staging,
// in both the serial and the pipelined stager role); Region is the
// number the region got at lowering (Step.Region), which the executor's
// barriers and the pipeline plan's region list share (the executor's
// ModeView, which moves no staging data, numbers only the regions that
// apply a kernel); Index counts the core's (or the driver's) operations
// cumulatively across the whole run, so a fault plan addressing (core,
// index) fires at the same operation on every replay. -1 in any field
// means "unknown" — a panic caught outside op replay, for example.
type OpRef struct {
	Region int
	Core   int
	Index  int
}

// DriverCore is the Core value of operations issued by the driving
// goroutine (memory↔shared staging) rather than a team worker.
const DriverCore = -1

// String renders the reference in the same vocabulary as the static
// verifier's findings: "region 2 core 1 op 17", with unknown fields
// omitted and the driver named.
func (r OpRef) String() string {
	s := ""
	if r.Region >= 0 {
		s += fmt.Sprintf("region %d ", r.Region)
	}
	switch {
	case r.Core == DriverCore:
		s += "driver "
	case r.Core >= 0:
		s += fmt.Sprintf("core %d ", r.Core)
	}
	if r.Index >= 0 {
		s += fmt.Sprintf("op %d ", r.Index)
	}
	if s == "" {
		return "unlocated op"
	}
	return s[:len(s)-1]
}
