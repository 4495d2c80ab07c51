// Package parallel executes schedules for real: the exact
// schedule.Program the cache simulator counts misses for is replayed by
// one worker goroutine per simulated core on actual float64 block data,
// with the typed block kernels of internal/matrix (the q×q "DGEMM"
// MulAdd plus LU's factor/trsm/mulsub set) at the leaves. Product
// algorithms are resolved through the algo registry, the LU
// factorisation compiles in internal/lu; there is no second copy of any
// loop nest here.
//
// This is the performance-evaluation half of the reproduction: it
// demonstrates that the algorithms are not just counting abstractions
// but executable schedules, verifies them against a reference product,
// and provides the real-time benchmarks.
package parallel

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/schedule"
)

// Team is a fixed pool of p worker goroutines, one per simulated core.
// Run dispatches a closure to every worker and blocks until all have
// finished — the "foreach core c = 1..p in parallel" construct of the
// paper's pseudocode. A Team must be released with Close.
//
// Failure model: a body that panics does not crash the process or kill
// its worker — the panic is recovered on the worker, converted into a
// *RunError (Panicked set, value and stack preserved), and returned
// from the join like any other error, while the remaining workers run
// their bodies to completion and the join never deadlocks. A closed
// Team refuses new work with an error instead of panicking on its
// closed channels, so a defer-ordering mistake in a caller degrades to
// a clean failure.
type Team struct {
	p      int
	jobs   []chan func()
	mu     sync.Mutex // guards closed and kept
	closed bool
	close  sync.Once
	kept   any // the value Keep parked on the team, until Take or Close
}

// NewTeam starts p workers.
func NewTeam(p int) (*Team, error) {
	if p <= 0 {
		return nil, fmt.Errorf("parallel: need at least one worker, got %d", p)
	}
	t := &Team{
		p:    p,
		jobs: make([]chan func(), p),
	}
	for c := 0; c < p; c++ {
		t.jobs[c] = make(chan func())
		go func(ch <-chan func()) {
			for f := range ch {
				f()
			}
		}(t.jobs[c])
	}
	return t, nil
}

// Size returns the number of workers.
func (t *Team) Size() int { return t.p }

// Run executes body(core) on every worker concurrently and waits for all
// of them. The first non-nil error is returned; bodies for distinct
// cores must touch disjoint output data (the algorithms guarantee this
// by construction). A panicking body surfaces as a *RunError, never as
// a process crash (see the Team failure model).
func (t *Team) Run(body func(core int) error) error {
	return t.Launch(body)()
}

// Launch dispatches body(core) to every worker and returns immediately
// with the join: calling the returned function blocks until all workers
// finish and yields the first error. Between Launch and the join the
// caller runs concurrently with the workers — the pipelined executor
// uses that window to stage shared blocks while the team computes.
//
// Worker panics are recovered into *RunError values and reported
// through the join; every worker's wg.Done runs unconditionally, so a
// panicking body can never leave the join waiting. Launching on a
// closed Team returns a join that fails immediately.
func (t *Team) Launch(body func(core int) error) (wait func() error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return func() error {
			return fmt.Errorf("parallel: Launch on a closed Team of %d workers", t.p)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, t.p)
	wg.Add(t.p)
	for c := 0; c < t.p; c++ {
		c := c
		t.jobs[c] <- func() {
			defer wg.Done()
			errs[c] = isolated(c, body)
		}
	}
	t.mu.Unlock()
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// isolated runs body(core) with panic isolation: a panic becomes a
// *RunError carrying the core, the recovered value and the stack. The
// executor's replay attributes panics to a specific op with full
// provenance before they reach this backstop; this layer guarantees
// that *no* body — replay or not — can crash the process or strand the
// team's join.
func isolated(core int, body func(core int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Op:         schedule.OpRef{Region: -1, Core: core, Index: -1},
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			}
		}
	}()
	return body(core)
}

// Keep parks v on the team, replacing whatever was parked there; a
// closed team drops it. With Take it lets a caller that runs the same
// work on a team again keep state exactly as long as the team lives:
// lu.FactorParallelTuned parks its compiled executor here.
func (t *Team) Keep(v any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.kept = v
	}
}

// Take removes the value parked on the team and returns it, or nil if
// there is none. A taken value is its taker's alone until it is kept
// again, so two goroutines never hold it at once.
func (t *Team) Take() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.kept
	t.kept = nil
	return v
}

// Close terminates the workers and drops the parked value. The Team is
// unusable afterwards: Run and Launch return errors rather than
// panicking. Close must not be called concurrently with Launch
// (callers own the Team's lifecycle); calling it twice is safe.
func (t *Team) Close() {
	t.close.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.kept = nil
		t.mu.Unlock()
		for _, ch := range t.jobs {
			close(ch)
		}
	})
}
