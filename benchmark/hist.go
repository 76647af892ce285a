package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed log-linear latency histogram over nanoseconds: 128
// sub-buckets per power of two, so a bucket is at most 1/128 (0.8%) wide
// relative to its lower edge. Recording is one index computation and two
// adds; nothing allocates after the struct exists, which is what lets the
// request loops run allocation-free.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64
}

// histBuckets covers values up to 2^42 ns (over an hour).
const histBuckets = 36 * 128

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	shift := bits.Len64(v) - 8
	if shift < 0 {
		shift = 0
	}
	i := shift*128 + int(v>>uint(shift))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 256 {
		return float64(i)
	}
	shift := uint(i/128 - 1)
	lo := uint64(i-int(shift)*128) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
	h.sum += int64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += int64(c)
		if cum > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// meanNs is the exact mean (the sum is kept beside the buckets).
func (h *hist) meanNs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// tailQuantile is the guide's rule for a tail percentile: p99 where at
// least 1000 samples stand behind it, otherwise the highest percentile
// that still has ten samples beyond it (the median when even that fails).
func tailQuantile(n int64) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n > 20:
		return 1 - 10/float64(n)
	default:
		return 0.5
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation (the "inclusive" method); xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}
