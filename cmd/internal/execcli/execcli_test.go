package execcli

import (
	"errors"
	"testing"
	"time"
)

// Fastest discards its warm-up: the first call's sample never wins,
// however fast it was, and a failing warm-up fails the measurement.
func TestFastestDiscardsWarmUp(t *testing.T) {
	calls := 0
	elapsed := []time.Duration{1, 30, 20}
	s, err := Fastest(2, func() (Sample, error) {
		calls++
		return Sample{Elapsed: elapsed[calls-1]}, nil
	})
	if err != nil || calls != 3 || s.Elapsed != 20 {
		t.Fatalf("Fastest(2) = %v, %v after %d calls; want 20ns after 3 (warm-up plus 2 reps)", s.Elapsed, err, calls)
	}
	boom := errors.New("boom")
	if _, err := Fastest(1, func() (Sample, error) { return Sample{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("a failing warm-up returned %v", err)
	}
}
