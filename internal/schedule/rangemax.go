package schedule

// rangeMaxBucket is the number of consecutive profile points that share
// one bucket of a rangeMax.
const rangeMaxBucket = 64

// rangeMax is an increment-only bucketed profile of counters: the
// optimizer's residency profile plus the extra lines its committed
// elisions keep resident. Each point keeps its own counter; each bucket
// of rangeMaxBucket consecutive points keeps the maximum of its points'
// counters and an add that applies to the whole bucket. Counters only
// grow, so a point increment raises its bucket's maximum in place and
// never needs to rescan the bucket.
//
// The optimizer asks one question of a window: does every counter in it
// stay below a limit? fits answers it bucket by bucket and stops at the
// first point or whole bucket that has reached the limit, so a window
// that fits costs O(rangeMaxBucket + (hi−lo)/rangeMaxBucket) and one
// that does not costs about the distance to its first full bucket.
type rangeMax struct {
	point []int // per-point counter, excluding its bucket's add
	max   []int // per-bucket maximum of point
	add   []int // per-bucket add, applying to every point of the bucket
}

// newRangeMax returns a rangeMax over profile, which it takes over.
func newRangeMax(profile []int) *rangeMax {
	nb := (len(profile) + rangeMaxBucket - 1) / rangeMaxBucket
	r := &rangeMax{point: profile, max: make([]int, nb), add: make([]int, nb)}
	for b := range r.max {
		r.max[b] = profile[b*rangeMaxBucket]
		for _, v := range profile[b*rangeMaxBucket : min((b+1)*rangeMaxBucket, len(profile))] {
			r.max[b] = max(r.max[b], v)
		}
	}
	return r
}

// fits reports whether every counter over the points lo..hi inclusive,
// which must be a non-empty range inside the profile, is below limit.
// A partial bucket is scanned point by point only when its maximum has
// reached the limit.
func (r *rangeMax) fits(lo, hi, limit int) bool {
	for lo <= hi {
		b := lo / rangeMaxBucket
		end := min((b+1)*rangeMaxBucket-1, hi)
		lim := limit - r.add[b]
		if r.max[b] >= lim {
			if lo == b*rangeMaxBucket && end == (b+1)*rangeMaxBucket-1 {
				return false
			}
			for _, v := range r.point[lo : end+1] {
				if v >= lim {
					return false
				}
			}
		}
		lo = end + 1
	}
	return true
}

// inc adds one to every counter over the points lo..hi inclusive.
func (r *rangeMax) inc(lo, hi int) {
	for lo <= hi {
		b := lo / rangeMaxBucket
		end := min((b+1)*rangeMaxBucket-1, hi)
		if lo == b*rangeMaxBucket && end == (b+1)*rangeMaxBucket-1 {
			r.add[b]++
		} else {
			m := r.max[b]
			ps := r.point[lo : end+1]
			for i := range ps {
				ps[i]++
				m = max(m, ps[i])
			}
			r.max[b] = m
		}
		lo = end + 1
	}
}
