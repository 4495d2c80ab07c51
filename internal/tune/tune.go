// Package tune defines the machine-local tuning record (TUNE.json):
// the block edge and pipeline lookahead that cmd/tune measured fastest
// on one concrete host, keyed by that host's identity so the record is
// never silently applied elsewhere.
//
// The tunables are pure timing knobs — the pipeline plan is
// re-verified at every lookahead — so loading a stale or foreign file
// can cost performance but never correctness. Resolution order at the
// CLIs is: explicit flags > a host-matched TUNE.json > built-in
// defaults (lookahead 1, the command's -q default).
package tune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/parallel"
	"repro/internal/report"
)

// Params is one tuned operating point.
type Params struct {
	// Q is the winning block edge in coefficients; 0 leaves the caller's
	// choice alone.
	Q int `json:"q,omitempty"`
	// Lookahead is the pipeline planning depth of ModeSharedPipelined;
	// 0 means the default depth 1.
	Lookahead int `json:"lookahead,omitempty"`
}

// Tuning converts the point to the executor's tuning bundle.
func (p Params) Tuning() (parallel.Tuning, error) {
	if p.Lookahead < 0 {
		return parallel.Tuning{}, fmt.Errorf("tune: negative lookahead %d", p.Lookahead)
	}
	return parallel.Tuning{Lookahead: p.Lookahead}, nil
}

// Host identifies the machine a tuning was measured on.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// CurrentHost probes the running machine.
func CurrentHost() Host {
	return Host{
		CPUModel:   report.CPUModel(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// Matches reports whether a tuning taken on h applies to the current
// host: the CPU model, scheduler parallelism, OS and architecture must
// all agree. The go version is provenance only — a toolchain bump does
// not invalidate a hardware-shaped optimum, merely dates it.
func (h Host) Matches(cur Host) bool {
	return h.CPUModel == cur.CPUModel &&
		h.GoMaxProcs == cur.GoMaxProcs &&
		h.GOOS == cur.GOOS &&
		h.GOARCH == cur.GOARCH
}

// Entry is one workload's winning point with the evidence next to it.
type Entry struct {
	Params
	// GFlops is the winner's median rate in the sweep; BaselineGFlops
	// the untuned default's median rate, measured in the same rounds.
	// The two are equal when no candidate beat the default beyond its
	// spread. The ratio is what cmd/perfguard's tuned ratchet
	// re-verifies from fresh benchmark records.
	GFlops         float64 `json:"gflops,omitempty"`
	BaselineGFlops float64 `json:"baseline_gflops,omitempty"`
}

// File is the TUNE.json document.
type File struct {
	Host Host `json:"host"`
	// Sweep provenance: how many candidate points were timed and with
	// how many repetitions each.
	Candidates int `json:"candidates,omitempty"`
	Reps       int `json:"reps,omitempty"`

	Gemm *Entry `json:"gemm,omitempty"`
	LU   *Entry `json:"lu,omitempty"`
}

// MatchesHost reports whether the file was measured on this machine.
func (f *File) MatchesHost() bool {
	return f.Host.Matches(CurrentHost())
}

// Load reads and validates a TUNE.json. A key the document does not
// define — a misspelling, or a field an older cmd/tune wrote — is an
// error naming it, and both entries' parameters must be valid, so a
// caller can trust any loaded entry.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tune: parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("tune: parsing %s: data after the document", path)
	}
	for _, e := range []*Entry{f.Gemm, f.LU} {
		if e == nil {
			continue
		}
		if _, err := e.Tuning(); err != nil {
			return nil, fmt.Errorf("tune: %s: %w", path, err)
		}
		if e.Q < 0 {
			return nil, fmt.Errorf("tune: %s: negative block edge %d", path, e.Q)
		}
	}
	return &f, nil
}

// Resolve composes a command's configuration in the documented order:
// explicit flags > a host-matched TUNE.json > built-in defaults. set
// names the flags given on the command line (from flag.Visit), and
// lookahead and q are the flag values. When path is not empty the file
// is loaded and entry picks the workload's point from it; a file tuned
// on a different host is reported on w, prefixed with the command's
// name, and ignored. A missing or malformed file is an error. The
// result always carries a concrete block edge: the file's q replaces
// the flag's default only when -q was not given.
func Resolve(w io.Writer, name, path string, entry func(*File) *Entry, set map[string]bool, lookahead, q int) (Params, error) {
	var p Params
	if path != "" {
		f, err := Load(path)
		if err != nil {
			return Params{}, err
		}
		if !f.MatchesHost() {
			fmt.Fprintf(w, "%s: %s was tuned on a different host; ignoring it\n", name, path)
		} else if e := entry(f); e != nil {
			p = e.Params
		}
	}
	if set["lookahead"] {
		p.Lookahead = lookahead
	}
	if set["q"] || p.Q == 0 {
		p.Q = q
	}
	return p, nil
}

// WriteFile writes the document as indented JSON.
func (f *File) WriteFile(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
