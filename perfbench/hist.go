package main

import (
	"math"
	"sort"

	"metronome/internal/stats"
)

// linHist is an exact histogram of non-negative integers: one counter per
// value below its size, and the program's log-bucketed histogram (1/32
// relative resolution) for the rarer values above. The benchmark keeps
// latencies in it at 1 µs resolution, so a percentile is exact to the
// microsecond rather than read off a reservoir sample. It has one writer;
// readers wait until the writer has stopped.
type linHist struct {
	counts []uint64
	over   stats.LogHistogram // values >= len(counts)
	n      uint64
}

func newLinHist(size int) *linHist { return &linHist{counts: make([]uint64, size)} }

func (h *linHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	if v >= int64(len(h.counts)) {
		h.over.Record(uint64(v))
		return
	}
	h.counts[v]++
}

func (h *linHist) merge(o *linHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over.Merge(&o.over)
	h.n += o.n
}

// rank returns the 1-based rank of the q-quantile among n values.
func rank(q float64, n uint64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the q-quantile: the rank-ceil(q*n) value, placed inside
// its bucket [v, v+1) as if the bucket's values were spread evenly (the
// benchmark truncates to whole µs, so a bucket holds [v, v+1) µs). A value
// in the overflow range is read the same way off the log buckets. An empty
// histogram reads 0.
func (h *linHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := rank(q, h.n)
	var cum uint64
	for v, c := range h.counts {
		if cum+c >= r {
			return float64(v) + (float64(r-cum)-0.5)/float64(c)
		}
		cum += c
	}
	return logRankValue(&h.over, r-cum)
}

// logQuantile is quantile for the program's log-bucketed histogram, in
// its recorded unit (nanoseconds for the telemetry bus).
func logQuantile(h *stats.LogHistogram, q float64) float64 {
	if h.N() == 0 {
		return 0
	}
	return logRankValue(h, rank(q, h.N()))
}

// logRankValue returns the rank-r value of a log-bucketed histogram,
// interpolated within its bucket.
func logRankValue(h *stats.LogHistogram, r uint64) float64 {
	var cum uint64
	for i := 0; i < stats.LogHistBuckets; i++ {
		c := h.CountAt(i)
		if cum+c >= r {
			return float64(stats.LogBucketLower(i)) + float64(stats.LogBucketWidth(i))*(float64(r-cum)-0.5)/float64(c)
		}
		cum += c
	}
	return float64(stats.LogHistMax)
}

// lowQuantile returns the rank-ceil(q*n) smallest of xs (the smallest for
// q <= 1/n), or 0 for none. xs is not modified.
func lowQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, uint64(len(s)))-1]
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
