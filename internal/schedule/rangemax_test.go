package schedule

import (
	"math/rand"
	"testing"
)

// refMax is the plain profile a rangeMax must agree with.
type refMax []int

func (r refMax) maxOver(lo, hi int) int {
	m := r[lo]
	for _, v := range r[lo : hi+1] {
		m = max(m, v)
	}
	return m
}

func (r refMax) inc(lo, hi int) {
	for i := lo; i <= hi; i++ {
		r[i]++
	}
}

// The bucketed profile must answer every capacity check exactly as a
// plain walk of the profile does, under increment-only adds, at limits
// just below, at and just above each range's maximum: seeded random
// ranges, plus the single point, the whole profile, ranges starting or
// ending on a bucket boundary, and profiles shorter than one bucket.
func TestRangeMaxMatchesPlainProfile(t *testing.T) {
	const B = rangeMaxBucket
	for _, n := range []int{1, 2, B - 1, B, B + 1, 3*B + 7, 10 * B} {
		rng := rand.New(rand.NewSource(int64(n)))
		profile := make([]int, n)
		for i := range profile {
			profile[i] = rng.Intn(20)
		}
		ref := refMax(append([]int(nil), profile...))
		rm := newRangeMax(profile)
		ranges := [][2]int{{0, n - 1}, {0, 0}, {n - 1, n - 1}, {n / 2, n / 2}}
		for b := 0; b*B < n; b++ {
			lo, end := b*B, min((b+1)*B, n)-1
			ranges = append(ranges, [2]int{lo, n - 1}, [2]int{0, end}, [2]int{lo, end})
			if lo < end {
				ranges = append(ranges, [2]int{lo, end - 1}, [2]int{lo + 1, end})
			}
			if end+1 < n {
				ranges = append(ranges, [2]int{end, end + 1}, [2]int{lo, end + 1})
			}
		}
		for i := 0; i < 200; i++ {
			lo := rng.Intn(n)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo)})
		}
		check := func(lo, hi int) {
			t.Helper()
			m := ref.maxOver(lo, hi)
			for _, limit := range []int{m - 1, m, m + 1} {
				if got, want := rm.fits(lo, hi, limit), m < limit; got != want {
					t.Fatalf("n=%d: fits [%d,%d] under %d = %t, want %t (max %d)", n, lo, hi, limit, got, want, m)
				}
			}
		}
		for i, r := range ranges {
			for _, q := range ranges {
				check(q[0], q[1])
			}
			// Book every range once, interleaving queries between adds.
			rm.inc(r[0], r[1])
			ref.inc(r[0], r[1])
			if i%7 == 0 {
				check(0, n-1)
			}
		}
		for _, q := range ranges {
			check(q[0], q[1])
		}
	}
}
