package schedule

// rangeMaxBucket is the number of consecutive profile points that share
// one bucket of a rangeMax.
const rangeMaxBucket = 64

// rangeMax is an increment-only bucketed range max over a profile of
// counters: the optimizer's residency profile plus the extra lines its
// committed elisions keep resident. Each point keeps its own counter;
// each bucket of rangeMaxBucket consecutive points keeps the maximum of
// its points' counters and an add that applies to the whole bucket. A
// query or an increment over [lo, hi] touches at most two partial
// buckets point by point and the buckets between them whole, so both
// cost O(rangeMaxBucket + (hi−lo)/rangeMaxBucket). Counters only grow,
// so a point increment raises its bucket's maximum in place and never
// needs to rescan the bucket.
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

// maxOver returns the largest counter over the points lo..hi
// inclusive, which must be a non-empty range inside the profile.
func (r *rangeMax) maxOver(lo, hi int) int {
	m := r.point[lo] + r.add[lo/rangeMaxBucket]
	for lo <= hi {
		b := lo / rangeMaxBucket
		end := min((b+1)*rangeMaxBucket-1, hi)
		if lo == b*rangeMaxBucket && end == (b+1)*rangeMaxBucket-1 {
			m = max(m, r.max[b]+r.add[b])
		} else {
			for _, v := range r.point[lo : end+1] {
				m = max(m, v+r.add[b])
			}
		}
		lo = end + 1
	}
	return m
}

// inc adds one to every counter over the points lo..hi inclusive.
func (r *rangeMax) inc(lo, hi int) {
	for lo <= hi {
		b := lo / rangeMaxBucket
		end := min((b+1)*rangeMaxBucket-1, hi)
		if lo == b*rangeMaxBucket && end == (b+1)*rangeMaxBucket-1 {
			r.add[b]++
		} else {
			for i := lo; i <= end; i++ {
				r.point[i]++
				r.max[b] = max(r.max[b], r.point[i])
			}
		}
		lo = end + 1
	}
}
